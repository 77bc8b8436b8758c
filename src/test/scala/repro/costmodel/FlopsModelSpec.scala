package repro.costmodel

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ClientPlaceTree, Planner}
import repro.data.SourceCatalog
import repro.exp.Workload

class FlopsModelSpec extends AnyFunSuite {
  val dense = ModelConfigs.Llama12B
  val moe   = ModelConfigs.Mixtral8x7B

  test("linear FLOPs scale with layer count") {
    val half = dense.copy(layers = dense.layers / 45)
    assert(math.abs(FlopsModel.linearPerToken(dense) / FlopsModel.linearPerToken(half) - 45.0) < 1e-9)
  }

  test("linear FLOPs scale quadratically with hidden size") {
    val a = ModelConfig("a", 1, 1, 1024)
    val b = ModelConfig("b", 1, 1, 2048)
    assert(math.abs(FlopsModel.linearPerToken(b) / FlopsModel.linearPerToken(a) - 4.0) < 1e-9)
  }

  test("top-2 MoE doubles only the FFN term") {
    val d1 = ModelConfig("d1", 1, 1, 1024, topK = 1, numExperts = 1)
    val d2 = ModelConfig("d2", 1, 1, 1024, topK = 2, numExperts = 8)
    val h = 1024.0
    assert(FlopsModel.linearPerToken(d2) - FlopsModel.linearPerToken(d1) == 2 * 2 * h * (4 * h))
  }

  test("attention cost is quadratic in segment length") {
    val r = FlopsModel.attentionSegment(dense, 2048) / FlopsModel.attentionSegment(dense, 1024)
    assert(math.abs(r - 4.0) < 1e-9)
  }

  test("a packed sequence costs linear(tokens) + sum of segment attention") {
    val segs = Seq(100L, 300L)
    val expected = 400 * FlopsModel.linearPerToken(dense) +
      segs.map(FlopsModel.attentionSegment(dense, _)).sum
    assert(FlopsModel.packedSequence(dense, segs) == expected)
  }

  test("the paper's 30/70 vs 50/50 packing example shows the quadratic gap") {
    // Sec. 1: a 30+70 packing incurs more attention compute than 50+50.
    val unbal = Seq(30L, 70L).map(l => l * l).sum
    val bal   = Seq(50L, 50L).map(l => l * l).sum
    assert(math.abs(unbal.toDouble / bal - 1.16) < 0.01)
    assert(FlopsModel.packedSequence(dense, Seq(30L, 70L)) >
           FlopsModel.packedSequence(dense, Seq(50L, 50L)))
  }

  test("one long segment costs more than many short ones at equal tokens") {
    assert(FlopsModel.packedSequence(dense, Seq(8192L)) >
           FlopsModel.packedSequence(dense, Vector.fill(8)(1024L)))
  }

  test("image cost combines per-image linear and quadratic terms") {
    val enc = ModelConfigs.ViT1B
    assert(FlopsModel.image(enc, 256) ==
      256 * FlopsModel.linearPerToken(enc) + FlopsModel.attentionSegment(enc, 256))
    assert(FlopsModel.images(enc, Seq(100L, 200L)) ==
      FlopsModel.image(enc, 100) + FlopsModel.image(enc, 200))
  }

  test("Fig. 3 reproduction: vanilla microbatch FLOPs gap exceeds 2x") {
    // The paper measures 3.2x (images) / 6.9x (sequences) max/min
    // microbatch FLOPs under no scheduling; our skewed generators must
    // reproduce a substantial gap.
    val tree = ClientPlaceTree(pp = 1, dp = 4, cp = 1, tp = 2)
    val buf  = Workload.stepBuffer(SourceCatalog.coyo700m, tree.dp, 8, 16384, step = 0)
    val plan = Planner.vanilla(buf, tree, 16384, 8)
    val sim  = repro.sim.TrainSim.simulate(plan, dense, ModelConfigs.ViT2B)
    assert(sim.maxMicrobatchFlops / sim.minMicrobatchFlops > 2.0,
      s"gap=${sim.maxMicrobatchFlops / sim.minMicrobatchFlops}")
  }
}
