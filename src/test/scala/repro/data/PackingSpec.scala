package repro.data

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropHelper.check
import repro.core.SampleMeta
import repro.exp.Workload

class PackingSpec extends AnyFunSuite {
  def s(id: Long, text: Long, img: Long = 0): SampleMeta = SampleMeta(id, "src", text, img)

  test("every sample lands in exactly one sequence") {
    val in   = Vector(s(1, 100), s(2, 900), s(3, 50), s(4, 80))
    val seqs = Packing.firstFit(in, 1000)
    assert(seqs.flatMap(_.segments).map(_.id).sorted == Vector(1L, 2L, 3L, 4L))
  }

  test("no sequence exceeds the context length") {
    val in   = Vector.tabulate(50)(i => s(i, 100 + i * 17))
    val seqs = Packing.firstFit(in, 1024)
    assert(seqs.forall(_.tokens <= 1024))
  }

  test("first-fit places a sample in the earliest open sequence with room") {
    val seqs = Packing.firstFit(Vector(s(1, 600), s(2, 600), s(3, 300)), 1000)
    // 3 fits next to 1, not in a new sequence.
    assert(seqs.size == 2)
    assert(seqs(0).segments.map(_.id) == Vector(1L, 3L))
  }

  test("samples longer than the context are truncated to fit") {
    val seqs = Packing.firstFit(Vector(s(1, 5000, 2000)), 1024)
    assert(seqs.size == 1 && seqs.head.tokens <= 1024)
  }

  test("truncation never destroys the sample, only shortens it") {
    val seqs = Packing.firstFit(Vector(s(1, 10, 9000)), 1024)
    assert(seqs.head.segments.map(_.id) == Vector(1L))
    assert(seqs.head.tokens == 1024)
  }

  test("segment lengths reflect pack order") {
    val seqs = Packing.firstFit(Vector(s(1, 400), s(2, 300), s(3, 200)), 1000)
    assert(seqs.head.segmentLens == Seq(400L, 300L, 200L))
  }

  test("padding is the unfilled remainder of the context") {
    val seqs = Packing.firstFit(Vector(s(1, 700)), 1024)
    assert(seqs.head.padding(1024) == 324)
  }

  test("efficiency is tokens over context slots") {
    val seqs = Packing.firstFit(Vector(s(1, 512), s(2, 512)), 1024)
    assert(Packing.efficiency(seqs, 1024) == 1.0)
    assert(Packing.efficiency(Vector.empty, 1024) == 1.0)
  }

  test("packing is deterministic") {
    val in = Vector.tabulate(30)(i => s(i, 37 * (i % 11) + 10))
    assert(Packing.firstFit(in, 256) == Packing.firstFit(in, 256))
  }

  test("context length must be positive") {
    intercept[IllegalArgumentException](Packing.firstFit(Vector(s(1, 10)), 0))
  }

  test("property: token conservation when nothing needs truncation") {
    val gen = Gen.listOfN(30, Gen.choose(1L, 500L))
    check(Prop.forAll(gen) { lens =>
      val in   = lens.zipWithIndex.map { case (l, i) => s(i, l) }.toVector
      val seqs = Packing.firstFit(in, 512)
      seqs.map(_.tokens).sum == lens.sum && seqs.forall(_.tokens <= 512)
    })
  }

  test("property: first-fit uses no more than twice the optimal sequence count") {
    val gen = Gen.listOfN(40, Gen.choose(1L, 512L))
    check(Prop.forAll(gen) { lens =>
      val in   = lens.zipWithIndex.map { case (l, i) => s(i, l) }.toVector
      val seqs = Packing.firstFit(in, 512)
      val lb   = math.ceil(lens.sum.toDouble / 512).toInt // volume lower bound
      seqs.size <= 2 * math.max(1, lb)
    })
  }

  // ---- equality with the linear-scan reference ------------------------

  val ctx = 32768L
  def navitBuffer(dp: Int, seed: Long): Vector[SampleMeta] =
    Workload.stepBuffer(SourceCatalog.navitData, dp, 8, ctx, step = 0, seed = seed)

  test("matches the linear-scan packer on navit_data buffers at world 2048") {
    Seq(1009L, 2018L).foreach { seed =>
      val buf = navitBuffer(1024, seed)
      assert(Packing.firstFit(buf, ctx) == FirstFitReference.firstFit(buf, ctx), s"seed=$seed")
    }
  }

  test("matches the linear-scan packer on a navit_data buffer at world 4096") {
    val buf = navitBuffer(2048, 1009L)
    assert(Packing.firstFit(buf, ctx) == FirstFitReference.firstFit(buf, ctx))
  }

  test("matches the linear-scan packer on a shuffled navit_data buffer") {
    val buf = new scala.util.Random(5).shuffle(navitBuffer(1024, 2018L))
    assert(Packing.firstFit(buf, ctx) == FirstFitReference.firstFit(buf, ctx))
  }

  test("property: matches the linear-scan packer with zero-length and over-long samples") {
    val c = 512L
    val sample = for {
      len <- Gen.frequency(1 -> Gen.const(0L), 1 -> Gen.const(c), 8 -> Gen.choose(0L, 2 * c))
      img <- Gen.choose(0L, len)
    } yield (len - img, img)
    check(Prop.forAll(Gen.listOf(sample)) { parts =>
      val in = parts.zipWithIndex.map { case ((text, img), i) => s(i, text, img) }.toVector
      Packing.firstFit(in, c) == FirstFitReference.firstFit(in, c)
    })
  }
}
