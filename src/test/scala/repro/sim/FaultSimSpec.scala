package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import FaultSim.{Config, spikes}

class FaultSimSpec extends AnyFunSuite {
  val base = Config(iters = 50, iterSec = 1.0, fillSecPerBatch = 0.8,
    fetchBaseSec = 0.05, prefetch = 4, warmup = 5)

  test("no failures means flat base fetch times") {
    val tr = FaultSim.run(base)
    assert(tr.size == 50)
    assert(tr.forall(_.fetchSec == base.fetchBaseSec))
  }

  test("planner failures with a deep prefetch buffer are fully overlapped") {
    val cfg = base.copy(plannerFailEvery = 15, plannerRecoverSec = 2.6, prefetch = 4)
    assert(spikes(FaultSim.run(cfg), cfg).isEmpty)
  }

  test("planner failures with a shallow buffer spike on every injection") {
    val cfg = base.copy(plannerFailEvery = 15, plannerRecoverSec = 2.6, prefetch = 2)
    val sp  = spikes(FaultSim.run(cfg), cfg)
    assert(sp.nonEmpty)
    // First injection is at warmup + plannerFailEvery = step 20.
    assert(sp.head >= 20)
  }

  test("spikes recur at the injection cadence with a shallow buffer") {
    val cfg = base.copy(iters = 60, plannerFailEvery = 15, plannerRecoverSec = 2.6, prefetch = 2)
    val sp  = spikes(FaultSim.run(cfg), cfg)
    assert(sp.size >= 2, s"expected repeated spikes, got $sp")
  }

  test("cold loader restore stalls the pipeline at the kill step") {
    val cfg = base.copy(loaderFailStep = 35, shadow = false,
                        loaderRecoverSec = 8.0)
    val sp = spikes(FaultSim.run(cfg), cfg)
    assert(sp.nonEmpty && sp.head >= 35 && sp.head <= 40)
  }

  test("shadow loader promotion leaves no visible spike") {
    val cfg = base.copy(loaderFailStep = 35, shadow = true)
    assert(spikes(FaultSim.run(cfg), cfg).isEmpty)
  }

  test("shadow recovery total time beats cold restore") {
    val cold   = base.copy(loaderFailStep = 35, shadow = false)
    val shadow = cold.copy(shadow = true)
    val tCold   = FaultSim.run(cold).map(_.fetchSec).sum
    val tShadow = FaultSim.run(shadow).map(_.fetchSec).sum
    assert(tShadow < tCold)
  }

  test("the buffer refills to capacity between failures") {
    val cfg = base.copy(plannerFailEvery = 15, plannerRecoverSec = 2.6, prefetch = 3)
    val tr  = FaultSim.run(cfg)
    assert(tr.map(_.bufferAfter).max <= cfg.prefetch)
    // Injections at steps 20 and 35: each drains the buffer, which is full
    // again before the next injection and at the last step.
    Seq(20 -> 35, 35 -> tr.size).foreach { case (from, until) =>
      val after   = tr.slice(from, until).map(_.bufferAfter)
      val drained = after.indexWhere(_ < cfg.prefetch)
      assert(drained >= 0, s"the failure at step $from did not drain the buffer")
      assert(after.indexWhere(_ == cfg.prefetch, drained) > drained, s"no refill between steps $from and $until")
    }
    assert(tr.last.bufferAfter == cfg.prefetch)
  }

  test("a slower producer than consumer eventually stalls even unfailed") {
    val cfg = base.copy(fillSecPerBatch = 1.5) // cannot keep up
    val tr  = FaultSim.run(cfg)
    assert(tr.drop(10).exists(_.fetchSec > base.fetchBaseSec))
  }

  test("traces are deterministic") {
    val cfg = base.copy(plannerFailEvery = 15, prefetch = 2)
    assert(FaultSim.run(cfg) == FaultSim.run(cfg))
  }

  test("fetch spikes bound the uncovered recovery window") {
    val cfg = base.copy(loaderFailStep = 35, shadow = false,
                        loaderRecoverSec = 8.0)
    val worst = FaultSim.run(cfg).map(_.fetchSec).max
    assert(worst <= cfg.loaderRecoverSec + cfg.fillSecPerBatch + cfg.fetchBaseSec + 1e-9)
  }
}
