package repro.autoscale

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SourceCatalog

class SourcePartitionerSpec extends AnyFunSuite {
  val group = SourceCatalog.navit100
  val pool = ResourcePool(totalCores = 2000, totalMemBytes = 1e13,
    constructorCores = 64, plannerCores = 4, podMemBytes = 64e9)
  val params = SourcePartitioner.Params()

  lazy val cfgs = SourcePartitioner.partition(group, pool, params)

  test("every source gets exactly one configuration") {
    assert(cfgs.map(_.source).sorted == group.sources.map(_.name).sorted)
  }

  test("all configs have positive actors and workers") {
    assert(cfgs.forall(c => c.actors >= 1 && c.workersPerActor >= 1))
  }

  test("workers per actor respect the wActor bound") {
    assert(cfgs.forall(_.workersPerActor <= params.wActor))
  }

  test("total workers per source respect the wSrc bound (plus actor rounding)") {
    assert(cfgs.forall(_.totalWorkers <= params.wSrc + params.wActor))
  }

  test("clusters are formed over descending transformation cost") {
    val costOf = group.sources.map(s => s.name -> s.transformSec).toMap
    val byCluster = cfgs.groupBy(_.cluster).toSeq.sortBy(_._1)
    val clusterMeans = byCluster.map { case (_, cs) => cs.map(c => costOf(c.source)).sum / cs.size }
    assert(clusterMeans == clusterMeans.sortBy(-_), "cluster means must descend")
  }

  test("cluster sizes match the clusterSize parameter (last may be short)") {
    val sizes = cfgs.groupBy(_.cluster).view.mapValues(_.size).toMap
    val full  = sizes.toSeq.sortBy(_._1).dropRight(1)
    assert(full.forall(_._2 == params.clusterSize))
  }

  test("costlier clusters receive at least as many workers per source") {
    val byCluster = cfgs.groupBy(_.cluster).toSeq.sortBy(_._1)
    val workers   = byCluster.map { case (_, cs) => cs.map(_.totalWorkers).sum.toDouble / cs.size }
    // Descending cost order => non-increasing mean workers (within rounding).
    workers.sliding(2).foreach { case Seq(hi, lo) => assert(hi + 1e-9 >= lo - 1.0) }
  }

  test("the most expensive source outranks the cheapest in workers") {
    val costOf = group.sources.map(s => s.name -> s.transformSec).toMap
    val most  = cfgs.maxBy(c => costOf(c.source))
    val least = cfgs.minBy(c => costOf(c.source))
    assert(most.totalWorkers >= least.totalWorkers)
  }

  test("cores per worker form one uniform resource block across sources") {
    // Stage 2 divides available cores by the pre-rounding worker total, so
    // all sources share one block size that cannot exceed the fair share.
    assert(cfgs.map(_.coresPerWorker).distinct.size == 1)
    val block = cfgs.head.coresPerWorker
    assert(block > 0 && block <= pool.availableCores)
    // Actor rounding may only inflate worker counts past the ideal total.
    assert(block >= pool.availableCores / cfgs.map(_.totalWorkers).sum - 1e-9)
  }

  test("every actor fits the pod memory bound when feasible") {
    val specOf = group.sources.map(s => s.name -> s).toMap
    cfgs.foreach { c =>
      val wpa = c.workersPerActor
      val mem = specOf(c.source).fileStateBytes + wpa * params.bufBytesPerWorker
      assert(mem <= pool.podMemBytes, s"${c.source} overflows a pod")
    }
  }

  test("tight pod memory forces more, thinner actors") {
    val tight = SourcePartitioner.partition(group, pool.copy(podMemBytes = 4e9), params)
    assert(tight.map(_.actors).sum >= cfgs.map(_.actors).sum)
  }

  test("clusterSize=1 gives every source its own cluster") {
    val solo = SourcePartitioner.partition(group, pool, params.copy(clusterSize = 1))
    assert(solo.map(_.cluster).distinct.size == group.sources.size)
  }
}
