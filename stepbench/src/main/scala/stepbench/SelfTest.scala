package stepbench

import java.nio.file.Path
import repro.core.StepPlan

/** Checks the harness itself: every workload at toy size passes one
  * checked step, and a plan with a dropped sample or with two segments
  * swapped inside a packed sequence counts as a failed step.
  */
object SelfTest {

  /** Removes the last segment of the first sequence that has two. */
  def dropSample(p: StepPlan): StepPlan = edit(p, _.size >= 2, _.dropRight(1))

  /** Swaps the first two segments of the first sequence where that
    * changes the order of segment lengths.
    */
  def swapSegments(p: StepPlan): StepPlan =
    edit(p, s => s.size >= 2 && s(0).seqLen != s(1).seqLen, s => s(1) +: s(0) +: s.drop(2))

  private def edit(p: StepPlan, pick: Vector[repro.core.SampleMeta] => Boolean,
                   f: Vector[repro.core.SampleMeta] => Vector[repro.core.SampleMeta]): StepPlan = {
    val (b, m, j) = (for {
      (bucket, b) <- p.backboneCells.zipWithIndex.iterator
      (bin, m)    <- bucket.zipWithIndex
      (seq, j)    <- bin.zipWithIndex if pick(seq.segments)
    } yield (b, m, j)).nextOption().getOrElse(sys.error("no sequence to corrupt"))
    val seq = p.backboneCells(b)(m)(j)
    p.copy(backboneCells = p.backboneCells.updated(b,
      p.backboneCells(b).updated(m, p.backboneCells(b)(m).updated(j, seq.copy(segments = f(seq.segments))))))
  }

  def run(work: Path): Int = {
    val failures = Seq.newBuilder[String]
    def expect(what: String, ok: Boolean, a: Attempt): Unit = {
      println(s"selftest: $what -> ${if (a.failed) "failed: " + a.errors.mkString("; ") else "passed"}")
      if (!ok) failures += what
    }
    Bench.names.foreach { name =>
      val b = Bench(name, seed = 1, work.resolve("selftest"), toy = true)
      try {
        b.prepare(); b.setup()
        val r = new Runner(b, traced = true)
        val a = r.attempt(0, trace = true)
        expect(s"$name toy step passes its checks", !a.failed, a)
        // Same step input as the clean step; the step must run and its checks fail.
        val drop = r.attempt(b.inputs, trace = false, corrupt = dropSample)
        expect(s"$name plan with a dropped sample fails its checks", drop.failed && drop.ran, drop)
        if (b.isInstanceOf[SparkStep]) {
          val swap = r.attempt(2 * b.inputs, trace = false, corrupt = swapSegments)
          expect(s"$name plan with swapped segments fails its checks", swap.failed && swap.ran, swap)
        }
      } finally b.close()
    }
    Main.deleteTree(work.resolve("selftest"))
    val bad = failures.result()
    if (bad.isEmpty) { println("selftest ok"); 0 }
    else { println(s"selftest FAILED: ${bad.mkString("; ")}"); 1 }
  }
}
