package repro.autoscale

import repro.data.DatasetGroup

/** Resource configuration for one source's loader actors.
  *
  * @param source          source name
  * @param cluster         source-cluster index (stage 1)
  * @param actors          loader data-parallel actor count
  * @param workersPerActor worker processes inside each actor
  * @param coresPerWorker  CPU cores granted per worker
  */
final case class LoaderConfig(source: String, cluster: Int, actors: Int,
                              workersPerActor: Int, coresPerWorker: Double) {
  def totalWorkers: Int = actors * workersPerActor
}

/** Cluster resources available to the loader tier after subtracting the
  * Data Constructor (sized from the fixed batch) and Planner shares.
  */
final case class ResourcePool(totalCores: Double, constructorCores: Double, plannerCores: Double,
                              podMemBytes: Double) {
  def availableCores: Double = math.max(1.0, totalCores - constructorCores - plannerCores)
}

/** Offline multi-level source auto-partitioning (Sec. 5.1).
  *
  * Stage 1 — Source Clustering: sources sorted by descending
  * transformation cost P_k, chunked into clusters of `clusterSize`
  * (empirically 4). Stage 2 — Resource Level Construction: per-cluster
  * worker counts proportional to the ratio of mean transformation cost
  * over the cheapest cluster's mean, capped by the per-source bound
  * `wSrc` and split into actors of at most `wActor` workers; available
  * cores divided by total workers give the worker resource block.
  * Stage 3 — Configuration Generation: actor counts are raised until
  * every actor's memory footprint fits the pod memory bound.
  */
object SourcePartitioner {

  final case class Params(clusterSize: Int = 4, wSrc: Int = 16, wActor: Int = 4,
                          bufBytesPerWorker: Double = 512.0 * 1024 * 1024)

  def partition(group: DatasetGroup, pool: ResourcePool, p: Params = Params()): Seq[LoaderConfig] = {
    require(p.clusterSize >= 1 && p.wSrc >= 1 && p.wActor >= 1)
    // Stage 1: descending-cost clusters of `clusterSize` sources.
    val sorted   = group.sources.sortBy(-_.transformSec)
    val clusters = sorted.grouped(p.clusterSize).toVector
    val means    = clusters.map(c => c.map(_.transformSec).sum / c.size)
    val minMean  = means.min

    // Stage 2: workers per source scale with cluster-mean cost ratio.
    val rawWorkers = clusters.zipWithIndex.flatMap { case (c, ci) =>
      val w = math.min(p.wSrc, math.max(1, math.round(means(ci) / minMean).toInt))
      c.map(s => (s, ci, w))
    }
    val totalWorkers = rawWorkers.map(_._3).sum
    val coresPerWorker = pool.availableCores / totalWorkers

    // Stage 3: actor split under wActor, then raise actors until each
    // actor fits the pod memory bound.
    rawWorkers.map { case (s, ci, w) =>
      var actors  = math.max(1, math.ceil(w.toDouble / p.wActor).toInt)
      def perActorMem(a: Int): Double = {
        val wpa = math.max(1, math.ceil(w.toDouble / a).toInt)
        s.fileStateBytes + wpa * p.bufBytesPerWorker
      }
      while (perActorMem(actors) > pool.podMemBytes && actors < w) actors += 1
      val wpa = math.max(1, math.ceil(w.toDouble / actors).toInt)
      LoaderConfig(s.name, ci, actors, wpa, coresPerWorker)
    }
  }
}
