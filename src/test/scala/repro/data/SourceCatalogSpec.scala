package repro.data

import org.scalatest.funsuite.AnyFunSuite

class SourceCatalogSpec extends AnyFunSuite {

  test("coyo700m has 5 sources, navit_data 306, navit_100 the first 100") {
    assert(SourceCatalog.coyo700m.sources.size == 5)
    assert(SourceCatalog.navitData.sources.size == 306)
    assert(SourceCatalog.navit100.sources.size == 100)
    assert(SourceCatalog.navit100.sources == SourceCatalog.navitData.sources.take(100))
  }

  test("source names are unique across each group") {
    Seq(SourceCatalog.coyo700m, SourceCatalog.navitData).foreach { g =>
      assert(g.sources.map(_.name).distinct.size == g.sources.size)
    }
  }

  test("catalog construction is deterministic") {
    // Each source's parameters are drawn from its own seed, so they do not
    // depend on how many sources the group holds or on construction order.
    assert(SourceCatalog.coyo700m.sources(3).patchLogMean ==
             math.log(700.0) + new scala.util.Random(1003L).nextGaussian() * 0.1)
    assert(SourceCatalog.navitData.sources(7).patchLogMean ==
             math.log(1000.0) + new scala.util.Random(2007L).nextGaussian() * 0.3)
    assert(SourceCatalog.navit100.sources == SourceCatalog.navitData.sources.take(100))
  }

  test("coyo text calibration: ~98.23% of samples are <= 64 tokens (Fig. 2)") {
    val sample = SourceCatalog.coyo700m.sources.flatMap(MultiSourceGen.sampleMetas(_, 4000))
    val frac   = sample.count(_.textLen <= 64).toDouble / sample.size
    assert(frac > 0.97 && frac < 0.995, s"got $frac")
  }

  test("coyo text tail holds a disproportionate token share (Fig. 2)") {
    val sample = SourceCatalog.coyo700m.sources.flatMap(MultiSourceGen.sampleMetas(_, 4000))
    val total  = sample.map(_.textLen).sum.toDouble
    val tail   = sample.filter(_.textLen > 64).map(_.textLen).sum.toDouble
    // ~1.8% of samples carry roughly an order of magnitude more than their share.
    assert(tail / total > 0.05 && tail / total < 0.25, s"tail share ${tail / total}")
  }

  test("navit text runs longer than coyo text") {
    val c = SourceCatalog.coyo700m.sources.flatMap(MultiSourceGen.sampleMetas(_, 1000))
    val n = SourceCatalog.navitData.sources.take(5).flatMap(MultiSourceGen.sampleMetas(_, 1000))
    assert(n.map(_.textLen).sum / n.size > c.map(_.textLen).sum / c.size)
  }

  test("patch counts are heavy-tailed: p99 over 10x the median") {
    val s = SourceCatalog.navitData.sources.take(3).flatMap(MultiSourceGen.sampleMetas(_, 3000))
    val sorted = s.map(_.imgPatches).sorted
    val median = sorted(sorted.size / 2)
    val p99    = sorted((sorted.size * 0.99).toInt)
    assert(p99 > 10 * median, s"median=$median p99=$p99")
  }

  test("navit per-source transform latency spans orders of magnitude (Fig. 5)") {
    val costs = SourceCatalog.navitData.sources.map(_.transformSec)
    assert(costs.max / costs.min > 100)
  }

  test("navit per-source file states span tens of MB to GB scale (Fig. 5)") {
    val st = SourceCatalog.navitData.fileStates
    assert(st.min > 4.0 * 1024 * 1024)
    assert(st.max > 1024.0 * 1024 * 1024)
  }
}
