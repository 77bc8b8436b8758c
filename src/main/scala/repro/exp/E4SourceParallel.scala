package repro.exp

import repro.costmodel.MemoryModel
import repro.costmodel.MemoryModel._
import repro.data.{DatasetGroup, SourceCatalog}

/** E4 — source redundancy removal (paper Fig. 15, Sec. 7.4): loader-tier
  * host memory with the trainer disabled, TP=16 / DP=2, batch 32,
  * context 32k, for navit_100 vs navit_data across worker counts
  * (Fig. 15a), and the effect of partitioning sources over the DP ranks
  * with SP=2 (Fig. 15b).
  */
object E4SourceParallel {

  val topo: TrainTopo = TrainTopo(gpus = 32, gpusPerNode = 16, tp = 16, cp = 1, pp = 1)
  val perDpBatch      = 32.0

  def sizing(workers: Int): LoaderSizing = LoaderSizing(
    workers = workers, prefetchDepth = 2, bytesPerSample = 0.3 * MiB,
    workerFixed = 0.25 * GiB, actorFixed = 1.5 * GiB, ctorBufFactor = 4.0)

  final case class Row(dataset: String, workers: Int, sp: Int, loaderMemGB: Double)

  /** Loader-tier memory: the DP-rank loaders split the source set into
    * `sp` disjoint shards (Sec. 7.4 "uniformly partition data sources
    * across DP ranks"). SP=1 means every DP loader opens every source;
    * SP=2 halves the reader states each loader holds. Worker processes
    * duplicate their loader's shard states (Fig. 4 pathology).
    */
  def loaderMemory(group: DatasetGroup, workers: Int, sp: Int): Double = {
    require(topo.dp % sp == 0, "SP must divide DP")
    val s = sizing(workers)
    val groups = MemoryModel
      .sourceParallelGroups(group.fileStates, sp, actorsPerShard = topo.dp / sp, workers,
        totalStaged = perDpBatch * topo.dp)
      .map(_.copy(statesPerWorker = true))
    MemoryModel.loaderMem(groups, s)
  }

  def sweep(workerCounts: Seq[Int] = Seq(1, 2, 4, 8)): Seq[Row] =
    for {
      ds <- Seq(SourceCatalog.navit100, SourceCatalog.navitData)
      w  <- workerCounts
      sp <- Seq(1, 2)
    } yield Row(ds.name, w, sp, loaderMemory(ds, w, sp) / GiB)

  def table(rows: Seq[Row]): String =
    Tables.render("E4 / Fig.15 — source parallelism vs loader host memory (TP=16, DP=2, bs=32, 32k)",
      Seq("dataset", "workers", "SP", "loader mem GB"),
      rows.map(r => Seq(r.dataset, r.workers.toString, r.sp.toString, Tables.f1(r.loaderMemGB))))

  def summary(rows: Seq[Row]): String = {
    def at(ds: String, w: Int, sp: Int) = rows.find(r => r.dataset == ds && r.workers == w && r.sp == sp).get.loaderMemGB
    f"navit_data / navit_100 memory at W=4, SP=1: ${at("navit_data", 4, 1) / at("navit_100", 4, 1)}%.1fx " +
      f"(paper: navit_100 significantly lower); SP=2 saves " +
      f"${(1 - at("navit_data", 4, 2) / at("navit_data", 4, 1)) * 100}%.0f%% on navit_data " +
      "(paper: substantial reduction)"
  }
}
