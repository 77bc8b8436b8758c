package repro.exp

import repro.core.{ClientPlaceTree, Planner}
import repro.costmodel.{ModelConfig, ModelConfigs}
import repro.data.SourceCatalog
import repro.sim.TrainSim

/** E2 — end-to-end orchestration performance (paper Fig. 13, Sec. 7.3).
  *
  * Sweeps {dataset group} x {backbone} x {encoder} x {context length} and
  * compares the three orchestration baselines of Sec. 7.1: Vanilla (no
  * scheduling), Backbone balance, Hybrid balance. The metric is simulated
  * training throughput (tokens/s) from `TrainSim` over plans produced by
  * the real Planner; speedups are relative to Vanilla.
  */
object E2Orchestration {

  final case class Cell(
      dataset: String, backbone: String, encoder: String, ctx: Long,
      vanillaTps: Double, backboneTps: Double, hybridTps: Double,
  ) {
    def backboneSpeedup: Double = backboneTps / vanillaTps
    def hybridSpeedup: Double   = hybridTps / vanillaTps
  }

  /** 16-GPU-scale mesh (the Sec. 2.3 trial widened to DP=8, TP=2 so the
    * straggler max ranges over a realistic rank count); the encoder runs
    * world-wide (EP=16) data parallel.
    */
  val tree: ClientPlaceTree = ClientPlaceTree(pp = 1, dp = 8, cp = 1, tp = 2)
  val nBins                 = 8
  val steps                 = 3

  def runCell(dataset: String, bb: ModelConfig, enc: ModelConfig, ctx: Long): Cell = {
    val group = SourceCatalog.byName(dataset)
    val tps = Array(0.0, 0.0, 0.0)
    (0 until steps).foreach { step =>
      val buffer = Workload.stepBuffer(group, tree.dp, nBins, ctx, step)
      Seq(Planner.vanilla(buffer, tree, ctx, nBins),
          Planner.backboneBalance(buffer, tree, ctx, nBins, bb),
          Planner.hybridBalance(buffer, tree, ctx, nBins, bb, enc)).zipWithIndex.foreach { case (plan, i) =>
        tps(i) += TrainSim.simulate(plan, bb, enc).throughputTokPerSec
      }
    }
    Cell(dataset, bb.name, enc.name, ctx, tps(0) / steps, tps(1) / steps, tps(2) / steps)
  }

  def sweep(ctxs: Seq[Long] = Seq(4096, 8192, 16384, 32768),
            datasets: Seq[String] = Seq("coyo700m", "navit_data"),
            backbones: Seq[ModelConfig] = ModelConfigs.backbones,
            encoders: Seq[ModelConfig] = ModelConfigs.encoders): Seq[Cell] =
    for {
      d <- datasets; b <- backbones; e <- encoders; c <- ctxs
    } yield runCell(d, b, e, c)

  def table(cells: Seq[Cell]): String = {
    val rows = cells.map { c =>
      Seq(c.dataset, c.backbone, c.encoder, s"${c.ctx / 1024}k",
          Tables.sci(c.vanillaTps), Tables.sci(c.backboneTps), Tables.sci(c.hybridTps),
          Tables.f2(c.backboneSpeedup) + "x", Tables.f2(c.hybridSpeedup) + "x")
    }
    Tables.render("E2 / Fig.13 — orchestration throughput (tokens/s, simulated)",
      Seq("dataset", "backbone", "encoder", "ctx", "vanilla", "bb-bal", "hybrid",
          "bb-speedup", "hybrid-speedup"), rows)
  }

  /** Aggregates quoted in Sec. 7.3 for EXPERIMENTS.md comparison. */
  def summary(cells: Seq[Cell]): String = {
    def avg(xs: Seq[Double]) = xs.sum / xs.size
    val byCtx = cells.groupBy(_.ctx).toSeq.sortBy(_._1).map { case (c, cs) =>
      f"${c / 1024}k avg ${avg(cs.map(_.hybridSpeedup))}%.2fx"
    }
    val byDs = cells.groupBy(_.dataset).toSeq.sortBy(_._1).map { case (d, cs) =>
      f"$d avg ${avg(cs.map(_.hybridSpeedup))}%.2fx (max ${cs.map(_.hybridSpeedup).max}%.2fx)"
    }
    (s"hybrid speedup: avg ${Tables.f2(avg(cells.map(_.hybridSpeedup)))}x, " +
      s"max ${Tables.f2(cells.map(_.hybridSpeedup).max)}x " +
      "(paper: avg 1.77x, max 4.54x)") +
      s"\nby context: ${byCtx.mkString(", ")} (paper: 4k 1.71x, 8k 2.63x, 16k 3.09x)" +
      s"\nby dataset: ${byDs.mkString(", ")} (paper: coyo 2.48x avg/4.54x max, navit 2.42x avg/3.47x max)"
  }
}
