package repro.loader

import repro.{SparkSpec, SparkTestData}
import repro.core.{ClientPlaceTree, Planner}
import repro.costmodel.ModelConfigs

class ColocatedBaselineSpec extends SparkSpec {
  lazy val group = { SparkTestData.ensure(spark); SparkTestData.group }
  lazy val loaders = group.sources.map(SourceLoader(_, SparkTestData.dir))

  test("colocated fetch scans every source once per rank (read amplification)") {
    val stats = ColocatedBaseline.fetch(spark, group, SparkTestData.dir, nRanks = 4)
    val total = loaders.map(_.scan(spark).count()).sum
    assert(stats.rowsScanned == total * 4)
    assert(stats.rowsDelivered == total) // hash shards partition the data
  }

  test("disaggregated fetch scans every source exactly once") {
    val buffer = loaders.flatMap(_.bufferMetadata(spark, limit = 16)).toVector
    val tree   = ClientPlaceTree(pp = 1, dp = 4, cp = 1, tp = 1)
    val rows   = Planner.planRows(Planner.backboneBalance(buffer, tree, 8192, 2, ModelConfigs.Llama12B))
    val stats  = ColocatedBaseline.fetchDisaggregated(spark, loaders.map(_.transformed(spark)), rows, 8192)
    val total  = loaders.map(_.scan(spark).count()).sum
    assert(stats.rowsScanned == total)
    assert(stats.rowsDelivered == buffer.size)
  }

  test("read amplification grows linearly with rank count") {
    val s2 = ColocatedBaseline.fetch(spark, group, SparkTestData.dir, nRanks = 2)
    val s4 = ColocatedBaseline.fetch(spark, group, SparkTestData.dir, nRanks = 4)
    assert(s2.rowsScanned > 0)
    assert(s4.rowsScanned == 2 * s2.rowsScanned)
  }

  test("fetch stats report positive wall time") {
    val stats = ColocatedBaseline.fetch(spark, group, SparkTestData.dir, nRanks = 2)
    assert(stats.wallMs > 0)
  }
}
