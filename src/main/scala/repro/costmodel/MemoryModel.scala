package repro.costmodel

/** Host-memory accounting for the dataloader architectures compared in the
  * paper (Sec. 2.3 "Multisource Scalability", Fig. 4/6, evaluated in
  * Fig. 12/14/15/17).
  *
  * The paper's own Fig. 14/17 numbers come from a "dry-run … simulated
  * backend" that profiles per-component memory and replays the replication
  * rules of each architecture; this module is that backend. Two memory
  * dimensions are modelled:
  *
  *  - M_d: per-source file access state (socket, Parquet footer/schema,
  *    row-group read buffer). Replicated per worker that opens the source.
  *  - M_b: batch buffer — prefetched sample payloads staged for delivery.
  *
  * plus fixed per-worker-process and per-actor overheads.
  */
object MemoryModel {

  val GiB: Double = 1024.0 * 1024 * 1024
  val MiB: Double = 1024.0 * 1024

  /** Trainer-side topology. `gpus` must factor into tp*cp*pp*dp. */
  final case class TrainTopo(gpus: Int, gpusPerNode: Int, tp: Int = 1, cp: Int = 1, pp: Int = 1) {
    require(gpus % (tp * cp * pp) == 0, s"gpus=$gpus not divisible by tp*cp*pp=${tp * cp * pp}")
    require(gpus % gpusPerNode == 0, s"gpus=$gpus not divisible by gpusPerNode=$gpusPerNode")
    val dp: Int    = gpus / (tp * cp * pp)
    val nodes: Int = gpus / gpusPerNode
  }

  /** Sizing constants of a loader deployment. Defaults are calibrated to
    * the production figures quoted in the paper (Fig. 4/5: file-state
    * memory dominates at moderate batch sizes; states are 100s of MB/source
    * at the tail).
    */
  final case class LoaderSizing(
      workers: Int = 4,
      prefetchDepth: Int = 2,
      bytesPerSample: Double = 2.0 * MiB,
      workerFixed: Double = 256.0 * MiB,
      actorFixed: Double = 128.0 * MiB,
      /** Data Constructor buffering multiplier over a plain prefetch buffer
        * (staging + per-client communication queues, Sec. 7.4 "buffering
        * requirements").
        */
      ctorBufFactor: Double = 4.0,
      plannerFixed: Double = 1.0 * GiB,
      /** Per loader<->constructor connection state (sockets, serialization
        * buffers). The all-to-all loader/constructor mesh makes this grow
        * with the effective DP size — the Appendix B connection-overhead
        * effect, visible as memory at scale.
        */
      connStateBytes: Double = 0.25 * MiB,
  ) { require(workers >= 1 && prefetchDepth >= 1) }

  /** Per-source file-access state sizes in bytes. */
  final case class SourceStates(mSrc: Seq[Double]) {
    def total: Double = mSrc.sum
  }

  /** Buffer bytes a loader needs to stage `samples` samples `depth` deep. */
  private def buf(samples: Double, s: LoaderSizing): Double =
    samples * s.bytesPerSample * s.prefetchDepth

  // -------------------------------------------------------------------
  // Colocated baseline: every GPU rank (including all TP/CP/PP replicas,
  // Fig. 6) runs a private dataloader of `workers` worker processes, and
  // every worker opens every source.
  // -------------------------------------------------------------------

  /** Total colocated loader memory across the cluster. `perDpSamples` is
    * the per-DP-rank batch each rank must stage (model-parallel ranks stage
    * the same batch redundantly).
    */
  def colocatedTotal(t: TrainTopo, s: LoaderSizing, src: SourceStates, perDpSamples: Double): Double =
    t.gpus.toDouble * s.workers * (src.total + buf(perDpSamples, s) + s.workerFixed)

  def colocatedPerNode(t: TrainTopo, s: LoaderSizing, src: SourceStates, perDpSamples: Double): Double =
    colocatedTotal(t, s, src, perDpSamples) / t.nodes

  // -------------------------------------------------------------------
  // OVERLORD: Source Loader actors + per-DP-rank Data Constructors +
  // one Planner. `sourcesPerActor` controls source partitioning: the
  // -Vanilla variant runs `loaderActors` DP-sharded actors each holding
  // *all* sources; source-partitioned variants hold disjoint subsets.
  // -------------------------------------------------------------------

  /** One Source Loader actor group: which source-state bytes it holds, how
    * many actor replicas (loader data parallelism), workers per actor, and
    * the per-actor staged sample count. `statesPerWorker = true` models
    * process-per-worker designs where every worker re-opens every source
    * (the colocated pathology); OVERLORD actors share one reader state per
    * actor across their workers.
    */
  final case class ActorGroup(heldStates: Double, actors: Int, workersPerActor: Int,
                              stagedSamples: Double, statesPerWorker: Boolean = false)

  def loaderMem(groups: Seq[ActorGroup], s: LoaderSizing): Double =
    groups.map { g =>
      val stateCopies = if (g.statesPerWorker) g.workersPerActor.toDouble else 1.0
      g.actors.toDouble *
        (s.actorFixed + g.heldStates * stateCopies +
          g.workersPerActor * (buf(g.stagedSamples, s) + s.workerFixed))
    }.sum

  def constructorMem(t: TrainTopo, s: LoaderSizing, perDpSamples: Double): Double =
    t.dp.toDouble * (s.actorFixed + perDpSamples * s.bytesPerSample * s.ctorBufFactor)

  def overlordTotal(t: TrainTopo, s: LoaderSizing, groups: Seq[ActorGroup], perDpSamples: Double): Double = {
    val loaderActors = groups.map(_.actors.toLong).sum
    val connState    = loaderActors.toDouble * t.dp * s.connStateBytes
    loaderMem(groups, s) + constructorMem(t, s, perDpSamples) + connState + s.plannerFixed
  }

  def overlordPerNode(t: TrainTopo, s: LoaderSizing, groups: Seq[ActorGroup], perDpSamples: Double): Double =
    overlordTotal(t, s, groups, perDpSamples) / t.nodes

  /** OVERLORD-Vanilla actor layout: `actors` DP-sharded loaders, each
    * holding every source's state (no source partitioning).
    */
  def vanillaGroups(src: SourceStates, actors: Int, workersPerActor: Int, totalStaged: Double): Seq[ActorGroup] =
    Seq(ActorGroup(src.total, actors, workersPerActor, totalStaged / actors))

  /** Uniform source partitioning: sources split into `sp` disjoint shards,
    * each served by `actorsPerShard` actors (Fig. 15 "SP=2").
    */
  def sourceParallelGroups(src: SourceStates, sp: Int, actorsPerShard: Int,
                           workersPerActor: Int, totalStaged: Double): Seq[ActorGroup] = {
    require(sp >= 1)
    val shards = src.mSrc.zipWithIndex.groupBy(_._2 % sp).toSeq.sortBy(_._1)
    shards.map { case (_, ss) =>
      ActorGroup(ss.map(_._1).sum, actorsPerShard, workersPerActor,
                 totalStaged / (sp * actorsPerShard))
    }
  }
}
