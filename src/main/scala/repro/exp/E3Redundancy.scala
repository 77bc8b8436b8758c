package repro.exp

import repro.costmodel.MemoryModel
import repro.costmodel.MemoryModel._
import repro.data.SourceCatalog

/** E3 — parallelism redundancy removal (paper Fig. 14, Sec. 7.4):
  * simulated memory cost ratio OVERLORD / Colocated over a (CP, PP)
  * sweep at BS=512 per DP rank, 512 nodes, 4 workers, no source
  * partitioning. The paper's shape: marginal overhead (ratio slightly
  * above 1) at low parallelism from constructor buffering; large savings
  * as CP/PP grow because colocated CP/PP ranks each re-buffer the same
  * per-DP batch while OVERLORD shares it through one constructor.
  */
object E3Redundancy {

  val nodes       = 512
  val gpusPerNode = 8
  val perDpBatch  = 512.0
  val sizing: LoaderSizing = LoaderSizing(
    workers = 4, prefetchDepth = 2, bytesPerSample = 2.0 * MiB,
    workerFixed = 0.25 * GiB, actorFixed = 0.3 * GiB, ctorBufFactor = 6.0,
    connStateBytes = 0.1 * MiB)

  /** This ablation isolates *parallelism* redundancy, so both sides use
    * identical torch-style worker processes over the same unpartitioned
    * source set (coyo700m) — including per-worker reader states.
    */
  val src: Seq[Double] = SourceCatalog.coyo700m.fileStates

  final case class Row(cp: Int, pp: Int, ratio: Double)

  def ratio(cp: Int, pp: Int, nodes: Int = nodes, perDp: Double = perDpBatch,
            s: LoaderSizing = sizing): Double = {
    val topo = TrainTopo(nodes * gpusPerNode, gpusPerNode, tp = 1, cp = cp, pp = pp)
    val coloc = colocatedTotal(topo, s, src, perDp)
    // OVERLORD layout for this ablation: one loader actor per DP rank,
    // all sources each ("no source partition"), same per-worker states
    // as the baseline — only the parallelism redundancy differs.
    val groups = MemoryModel.vanillaGroups(src, topo.dp, s.workers,
      totalStaged = perDp * topo.dp).map(_.copy(statesPerWorker = true))
    overlordTotal(topo, s, groups, perDp) / coloc
  }

  def sweep(cps: Seq[Int] = Seq(1, 2, 4, 8), pps: Seq[Int] = Seq(1, 2, 4, 8)): Seq[Row] =
    for (cp <- cps; pp <- pps) yield Row(cp, pp, ratio(cp, pp))

  def table(rows: Seq[Row]): String =
    Tables.render("E3 / Fig.14 — memory cost ratio OVERLORD/colocated (BS=512, 512 nodes, 4 workers)",
      Seq("cp", "pp", "ratio"),
      rows.map(r => Seq(r.cp.toString, r.pp.toString, Tables.f3(r.ratio))))
}
