package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.data.SourceCatalog

/** Fast shape checks over the experiment drivers; the full-table runs and
  * paper-shape assertions live in the bench project.
  */
class ExpDriversSpec extends AnyFunSuite {

  test("Workload.stepBuffer draws dp x samplesPerRank samples") {
    val b = Workload.stepBuffer(SourceCatalog.coyo700m, dp = 4, nBins = 8, ctx = 4096, step = 0)
    assert(b.size == 4 * 32)
  }

  test("Workload.stepBuffer is deterministic per step and varies across steps") {
    val a = Workload.stepBuffer(SourceCatalog.coyo700m, 4, 8, 4096, 0)
    val b = Workload.stepBuffer(SourceCatalog.coyo700m, 4, 8, 4096, 0)
    val c = Workload.stepBuffer(SourceCatalog.coyo700m, 4, 8, 4096, 1)
    assert(a == b && a != c)
  }

  test("Workload buffers mix multiple sources") {
    val b = Workload.stepBuffer(SourceCatalog.coyo700m, 4, 8, 4096, 0)
    assert(b.map(_.source).distinct.size >= 3)
  }

  test("E3 ratio shows overhead at low parallelism, savings at high") {
    assert(E3Redundancy.ratio(1, 1) > 1.0)
    assert(E3Redundancy.ratio(4, 4) < 0.5)
    assert(E3Redundancy.ratio(8, 8) < E3Redundancy.ratio(2, 2))
  }

  test("E4 loader memory grows with workers and sources, shrinks with SP") {
    val a = E4SourceParallel.loaderMemory("navit_100", 2, 1)
    val b = E4SourceParallel.loaderMemory("navit_100", 4, 1)
    val c = E4SourceParallel.loaderMemory("navit_data", 4, 1)
    val d = E4SourceParallel.loaderMemory("navit_data", 4, 2)
    assert(b > a && c > b && d < c)
  }

  test("E5 rows cover all four fault scenarios") {
    val rows = E5FaultTolerance.run()
    assert(rows.map(_.scenario).toSet == Set(
      "planner-fail buffer=2", "planner-fail buffer=4",
      "loader-fail cold-restore", "loader-fail shadow"))
  }

  test("E7 produces direct and constructor rows at each scale") {
    val rows = E7Scalability.run(Seq(1024, 2048))
    assert(rows.size == 4)
    assert(rows.count(_.arch.startsWith("direct")) == 2)
  }

  test("E1 regimes give auto the largest capacity") {
    val r = E1Architecture.regimes(E1Architecture.scale288, SourceCatalog.navit100)
    assert(r("overlord-auto")._1 > r("overlord-vanilla")._1)
  }

  test("E2 runCell produces ordered throughputs for one small cell") {
    val c = E2Orchestration.runCell("coyo700m", repro.costmodel.ModelConfigs.Llama12B,
      repro.costmodel.ModelConfigs.ViT1B, 8192)
    assert(c.vanillaTps > 0)
    assert(c.hybridTps >= c.backboneTps * 0.99)
    assert(c.backboneTps >= c.vanillaTps * 0.99)
  }

  test("Tables.render aligns headers and rows") {
    val t = Tables.render("x", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("33", "4")))
    val lines = t.split("\n")
    assert(lines.length == 5)
    assert(lines.drop(1).map(_.length).distinct.size == 1)
  }
}
