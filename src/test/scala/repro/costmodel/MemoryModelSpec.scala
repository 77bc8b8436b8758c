package repro.costmodel

import org.scalatest.funsuite.AnyFunSuite
import MemoryModel._

class MemoryModelSpec extends AnyFunSuite {
  val topo = TrainTopo(gpus = 64, gpusPerNode = 8, tp = 2, cp = 2, pp = 2)
  val s    = LoaderSizing()
  val src  = Seq(1e8, 2e8, 3e8)

  test("topology derives dp and nodes") {
    assert(topo.dp == 8 && topo.nodes == 8)
  }

  test("invalid topologies are rejected") {
    intercept[IllegalArgumentException](TrainTopo(10, 8, tp = 3))
    intercept[IllegalArgumentException](TrainTopo(10, 4))
  }

  test("colocated memory is linear in worker count") {
    val a = colocatedTotal(topo, s.copy(workers = 2), src, 64)
    val b = colocatedTotal(topo, s.copy(workers = 4), src, 64)
    assert(math.abs(b / a - 2.0) < 1e-9)
  }

  test("colocated memory grows with every added source") {
    val more = src :+ 5e8
    assert(colocatedTotal(topo, s, more, 64) > colocatedTotal(topo, s, src, 64))
  }

  test("colocated per-node times nodes equals the total") {
    assert(math.abs(colocatedPerNode(topo, s, src, 64) * topo.nodes -
                    colocatedTotal(topo, s, src, 64)) < 1.0)
  }

  test("per-worker state duplication doubles held state with 2 workers") {
    val shared = ActorGroup(1e9, actors = 1, workersPerActor = 2, stagedSamples = 0)
    val dup    = shared.copy(statesPerWorker = true)
    val diff   = loaderMem(Seq(dup), s) - loaderMem(Seq(shared), s)
    assert(math.abs(diff - 1e9) < 1.0)
  }

  test("loader memory sums actor groups independently") {
    val g1 = ActorGroup(1e8, 2, 1, 10)
    val g2 = ActorGroup(2e8, 1, 2, 10)
    assert(loaderMem(Seq(g1, g2), s) == loaderMem(Seq(g1), s) + loaderMem(Seq(g2), s))
  }

  test("constructor memory scales with DP size and batch") {
    val small = constructorMem(topo, s, 32)
    val big   = constructorMem(topo, s, 64)
    assert(big > small)
    val wide = TrainTopo(64, 8, tp = 1, cp = 1, pp = 1) // dp = 64
    assert(constructorMem(wide, s, 32) > constructorMem(topo, s, 32))
  }

  test("overlord total includes loaders, constructors, connections, planner") {
    val g = vanillaGroups(src, actors = 4, workersPerActor = 2, totalStaged = 64)
    val t = overlordTotal(topo, s, g, 8)
    val parts = loaderMem(g, s) + constructorMem(topo, s, 8) +
      4.0 * topo.dp * s.connStateBytes + s.plannerFixed
    assert(math.abs(t - parts) < 1.0)
  }

  test("vanillaGroups hold the full source state in every actor") {
    val g = vanillaGroups(src, 4, 2, 64)
    assert(g.size == 1 && g.head.heldStates == src.sum && g.head.actors == 4)
    assert(g.head.stagedSamples == 16.0)
  }

  test("sourceParallelGroups partition states without loss") {
    val g = sourceParallelGroups(src, sp = 2, actorsPerShard = 1, workersPerActor = 1, totalStaged = 10)
    assert(g.size == 2)
    assert(math.abs(g.map(_.heldStates).sum - src.sum) < 1.0)
  }

  test("SP=2 halves per-shard state copies relative to SP=1") {
    val sp1 = sourceParallelGroups(src, 1, actorsPerShard = 2, workersPerActor = 1, totalStaged = 10)
    val sp2 = sourceParallelGroups(src, 2, actorsPerShard = 1, workersPerActor = 1, totalStaged = 10)
    // SP=1: 2 actors x full states; SP=2: 1 actor per half-shard.
    val mem1 = loaderMem(sp1, s); val mem2 = loaderMem(sp2, s)
    assert(mem2 < mem1)
  }

  test("parallelism redundancy shrinks the overlord/colocated ratio") {
    def ratio(cp: Int, pp: Int): Double = {
      val t = TrainTopo(64, 8, tp = 1, cp = cp, pp = pp)
      val g = vanillaGroups(src, t.dp, s.workers, 512).map(_.copy(statesPerWorker = true))
      overlordTotal(t, s, g, 512.0 / t.dp) / colocatedTotal(t, s, src, 512.0 / t.dp)
    }
    assert(ratio(2, 2) < ratio(1, 1))
    assert(ratio(4, 2) < ratio(2, 2))
  }
}
