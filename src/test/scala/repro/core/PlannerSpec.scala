package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import repro.PropHelper.check
import repro.costmodel.ModelConfigs
import repro.data.SourceCatalog
import repro.exp.Workload

class PlannerSpec extends AnyFunSuite {
  val tree  = ClientPlaceTree(pp = 1, dp = 4, cp = 1, tp = 2)
  val ctx   = 8192L
  val nBins = 4
  val bb    = ModelConfigs.Llama12B
  val enc   = ModelConfigs.ViT1B

  def buffer(seed: Int = 0): Vector[SampleMeta] =
    Workload.stepBuffer(SourceCatalog.coyo700m, tree.dp, nBins, ctx, seed)

  def allSampleIds(p: StepPlan): Vector[Long] =
    p.backboneCells.flatten.flatten.flatMap(_.segments.map(_.id)).sorted

  test("vanilla plan preserves every sample exactly once") {
    val buf = buffer()
    val p   = Planner.vanilla(buf, tree, ctx, nBins)
    assert(allSampleIds(p) == buf.map(_.id).sorted)
  }

  test("vanilla shards samples near-equally by count across DP ranks") {
    val buf = buffer()
    val p   = Planner.vanilla(buf, tree, ctx, nBins)
    val counts = p.backboneCells.map(_.flatten.flatMap(_.segments).size)
    assert(counts.max - counts.min <= buf.size / tree.dp / 2 + 1)
  }

  test("backbone balance preserves every sample exactly once") {
    val buf = buffer()
    val p   = Planner.backboneBalance(buf, tree, ctx, nBins, bb)
    assert(allSampleIds(p) == buf.map(_.id).sorted)
  }

  test("hybrid balance preserves backbone cells and rebalances images") {
    val buf = buffer()
    val b   = Planner.backboneBalance(buf, tree, ctx, nBins, bb)
    val h   = Planner.hybridBalance(buf, tree, ctx, nBins, bb, enc)
    assert(h.backboneCells == b.backboneCells)
    assert(h.allImages.map(_.sampleId).sorted == b.allImages.map(_.sampleId).sorted)
  }

  test("no packed sequence exceeds the context length") {
    val p = Planner.hybridBalance(buffer(), tree, ctx, nBins, bb, enc)
    assert(p.allSeqs.forall(_.tokens <= ctx))
  }

  test("every image stays in the same microbatch bin as its sequence") {
    val p = Planner.hybridBalance(buffer(), tree, ctx, nBins, bb, enc)
    val seqBin = (for {
      (bucket, _) <- p.backboneCells.zipWithIndex
      (bin, m)    <- bucket.zipWithIndex
      seq         <- bin; s <- seq.segments if s.imgPatches > 0
    } yield s.id -> m).toMap
    for (r <- 0 until tree.world; m <- 0 until nBins; img <- p.encoderCells(r)(m))
      assert(seqBin(img.sampleId) == m, s"image ${img.sampleId} strayed from its bin")
  }

  test("backbone balance lowers per-bucket cost imbalance vs vanilla") {
    val buf  = buffer()
    def bucketImb(p: StepPlan): Double = Balancer.imbalance(p.backboneCells.map(_.flatten), CostFns.backbone(bb))
    assert(bucketImb(Planner.backboneBalance(buf, tree, ctx, nBins, bb)) <=
           bucketImb(Planner.vanilla(buf, tree, ctx, nBins)))
  }

  test("hybrid balance lowers encoder imbalance vs backbone-only") {
    val buf  = buffer()
    def encImb(p: StepPlan): Double = Balancer.imbalance(p.encoderCells.map(_.flatten), CostFns.encoder(enc))
    val hb = encImb(Planner.hybridBalance(buf, tree, ctx, nBins, bb, enc))
    val bo = encImb(Planner.backboneBalance(buf, tree, ctx, nBins, bb))
    assert(hb <= bo)
  }

  test("vanilla images are served by their own bucket's GPU ranks") {
    val p = Planner.vanilla(buffer(), tree, ctx, nBins)
    val sampleBucket = (for {
      (bucket, b) <- p.backboneCells.zipWithIndex
      seq <- bucket.flatten; s <- seq.segments
    } yield s.id -> b).toMap
    for (r <- 0 until tree.world; m <- 0 until nBins; img <- p.encoderCells(r)(m))
      assert(tree.client(r).dp == sampleBucket(img.sampleId))
  }

  test("seqIds are unique within a plan") {
    val buf = buffer()
    Seq("vanilla"  -> Planner.vanilla(buf, tree, ctx, nBins),
        "backbone" -> Planner.backboneBalance(buf, tree, ctx, nBins, bb),
        "hybrid"   -> Planner.hybridBalance(buf, tree, ctx, nBins, bb, enc)).foreach { case (s, p) =>
      val ids = p.allSeqs.map(_.seqId)
      assert(ids.distinct.size == ids.size, s"duplicate seqIds under $s")
    }
  }

  test("planRows flattens the plan losslessly") {
    val buf  = buffer()
    val p    = Planner.backboneBalance(buf, tree, ctx, nBins, bb)
    val rows = Planner.planRows(p)
    assert(rows.map(_.sampleId).sorted == buf.map(_.id).sorted)
    assert(rows.forall(r => r.bucket < tree.dp && r.bin < nBins))
    val bySeq = rows.groupBy(r => (r.bucket, r.bin, r.seqId))
    assert(bySeq.values.forall(rs => rs.map(_.pos).sorted == (0 until rs.size)))
  }

  test("property: every strategy plans each sample exactly once on any mesh") {
    val c = 4096L
    val sample = for {
      len <- Gen.frequency(1 -> Gen.const(0L), 1 -> Gen.choose(c + 1, 2 * c), 8 -> Gen.choose(1L, c))
      img <- Gen.frequency(1 -> Gen.const(0L), 1 -> Gen.choose(0L, len))
    } yield (len - img, img)
    val setup = for {
      pp <- Gen.choose(1, 2); dp <- Gen.choose(1, 8); cp <- Gen.choose(1, 2); tp <- Gen.choose(1, 2)
      bins  <- Gen.choose(1, 4)
      n     <- Gen.choose(0, 200)
      parts <- Gen.listOfN(n, sample)
    } yield (ClientPlaceTree(pp, dp, cp, tp), bins, parts.zipWithIndex.map { case ((text, img), i) =>
      SampleMeta(i.toLong, s"s${i % 3}", text, img)
    }.toVector)
    check(Prop.forAllNoShrink(setup) { case (t, bins, buf) =>
      val ids      = buf.map(_.id).sorted
      val imageIds = buf.filter(_.imgPatches > 0).map(_.id).sorted
      // Over-long samples are truncated to the context, so each counts as ctx.
      val tokens   = buf.map(s => math.min(s.seqLen, c)).sum
      Prop.all(Seq(
        "vanilla"  -> Planner.vanilla(buf, t, c, bins),
        "backbone" -> Planner.backboneBalance(buf, t, c, bins, bb),
        "hybrid"   -> Planner.hybridBalance(buf, t, c, bins, bb, enc),
      ).flatMap { case (name, p) =>
        val seqAt = (for {
          (bucket, b) <- p.backboneCells.zipWithIndex
          (bin, m)    <- bucket.zipWithIndex
          seq         <- bin
        } yield (b, m, seq.seqId) -> seq).toMap
        val seqBin = for (((_, m, _), seq) <- seqAt; s <- seq.segments) yield s.id -> m
        val rows   = Planner.planRows(p)
        Seq(
          "grid shape" -> (p.backboneCells.size == t.dp && p.backboneCells.forall(_.size == bins) &&
                           p.encoderCells.size == t.world && p.encoderCells.forall(_.size == bins)),
          "backbone ids once" -> (allSampleIds(p) == ids),
          "plan rows point at their segment" -> (seqAt.size == p.allSeqs.size &&
            rows.map(_.sampleId).sorted == ids &&
            rows.forall(r => seqAt.get((r.bucket, r.bin, r.seqId))
              .flatMap(_.segments.lift(r.pos)).exists(_.id == r.sampleId))),
          "images once" -> (p.allImages.map(_.sampleId).sorted == imageIds),
          "images in their sequence's bin" -> (0 until t.world).forall(r =>
            (0 until bins).forall(m => p.encoderCells(r)(m).forall(img => seqBin(img.sampleId) == m))),
          "tokens conserved" -> (p.totalTokens == tokens),
        ).map { case (label, ok) => ok :| s"$name: $label" }
      }: _*)
    })
  }

  test("imagesOf extracts only image-bearing samples") {
    val seqs = repro.data.Packing.firstFit(
      Vector(SampleMeta(1, "a", 10, 0), SampleMeta(2, "a", 10, 7)), 1024)
    val imgs = Planner.imagesOf(seqs)
    assert(imgs.map(_.sampleId) == Vector(2L) && imgs.head.patches == 7)
  }

  test("hybrid plans on a dp-1024 navit_data mesh match their recorded digests") {
    // The plan_2k step benchmark's inputs: 32 samples per DP rank, seed 12.
    val big = ClientPlaceTree(pp = 1, dp = 1024, cp = 1, tp = 2)
    val digests = Vector(0, 1).map { k =>
      val buf = Workload.stepBuffer(SourceCatalog.navitData, big.dp, 8, 32768L, step = k, seed = 12 * 1009L)
      val p   = Planner.hybridBalance(buf, big, 32768L, 8, bb, ModelConfigs.ViT2B)
      val sha = java.security.MessageDigest.getInstance("SHA-256")
      Planner.planRows(p).foreach(r => sha.update(s"$r\n".getBytes("UTF-8")))
      for (r <- 0 until big.world; m <- 0 until 8)
        sha.update(s"$r $m ${p.encoderCells(r)(m).mkString(",")}\n".getBytes("UTF-8"))
      sha.digest().map("%02x".format(_)).mkString
    }
    assert(digests == Vector(
      "fd212ccb041b6c21367fbc1d255ea490ce1a4c657650900565e43da2e2531c48",
      "97b771244b45f89e01a37a83f042d9a37d60c8cba27e51721a402ee8188f386c"))
  }

  test("totalTokens matches the sum over packed sequences") {
    val p = Planner.vanilla(buffer(), tree, ctx, nBins)
    assert(p.totalTokens == p.allSeqs.map(_.tokens).sum)
  }
}
