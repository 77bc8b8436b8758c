package repro.core

import org.scalatest.funsuite.AnyFunSuite

class PrimitivesSpec extends AnyFunSuite {
  val tree = ClientPlaceTree(pp = 1, dp = 4, cp = 1, tp = 2)

  def metas(n: Int, seed: Long = 1): Vector[SampleMeta] = {
    val rnd = new scala.util.Random(seed)
    Vector.tabulate(n)(i => SampleMeta(i, s"s${i % 3}", 10 + rnd.nextInt(500), rnd.nextInt(300)))
  }

  def orch(items: Vector[SampleMeta]): Orchestration[SampleMeta] = Orchestration(tree, items)

  val seqLen: SampleMeta => Double = _.seqLen.toDouble

  test("distribute validates the axis eagerly") {
    Seq("BOGUS", "CP", "WORLD").foreach(a => intercept[RuntimeException](orch(metas(4)).distribute(a)))
  }

  test("plan covers every item exactly once") {
    val p = orch(metas(40)).distribute("DP").cost(seqLen).balance("greedybinpack", 4).plan()
    assert(p.flatten.flatten.map(_.id).sorted == (0L until 40L).toVector)
  }

  test("plan respects bucket and bin counts") {
    val p = orch(metas(40)).distribute("DP").balance("greedybinpack", 4).plan()
    assert(p.size == 4 && p.forall(_.size == 4))
  }

  test("balance rejects any method but greedybinpack, eagerly") {
    Seq("sequential", "zigzag", "GreedyBinPack").foreach { m =>
      intercept[IllegalArgumentException](orch(metas(4)).distribute("DP").balance(m, 4))
    }
  }

  test("balanced plan has lower bucket imbalance than sequential") {
    val items = metas(200, seed = 9)
    val bal = orch(items).distribute("DP").cost(seqLen).balance("greedybinpack", 4).plan()
    assert(Balancer.imbalance(bal.map(_.flatten), seqLen) <=
           Balancer.imbalance(Balancer.sequential(items, tree.dp), seqLen))
  }

  test("broadcastAt(TP) halves the consumer set") {
    val base = orch(metas(8)).distribute("DP")
    val thin = orch(metas(8)).distribute("DP").broadcastAt("TP")
    assert(base.consumers.map(_.size).sum == tree.world)
    assert(thin.consumers.map(_.size).sum == tree.world / 2)
    assert(thin.consumers.flatten.forall(_.tp == 0))
  }

  test("plan prices each item once for both levels") {
    val items = metas(60, seed = 5)
    val calls = new java.util.concurrent.atomic.AtomicInteger
    val counting: SampleMeta => Double = { s => calls.incrementAndGet(); seqLen(s) }
    orch(items).distribute("DP").cost(counting).balance("greedybinpack", 4).plan()
    assert(calls.get == items.size, s"priced ${calls.get} times for ${items.size} items")
  }

  test("plan equals its two levels balanced one after the other, on and off the pool") {
    // 60 items balance on the calling thread, 3000 on the ForkJoin pool.
    for (n <- Seq(60, 3000)) {
      val items = metas(n, seed = 7)
      val serial = Balancer.greedyBinPack(items, tree.dp, seqLen).map(Balancer.greedyBinPack(_, 4, seqLen))
      assert(orch(items).distribute("DP").cost(seqLen).balance("greedybinpack", 4).plan() == serial, s"$n items")
    }
  }

  test("packed-sequence orchestration expands to member sample ids") {
    val seqs = repro.data.Packing.firstFit(metas(20), 1024)
    val orch = Orchestration.packed(tree, seqs).distribute("DP")
      .cost(CostFns.backbone(repro.costmodel.ModelConfigs.Llama12B))
      .balance("greedybinpack", 2)
    assert(orch.plan().flatten.flatten.flatMap(_.segments.map(_.id)).sorted == (0L until 20L).toVector)
  }
}
