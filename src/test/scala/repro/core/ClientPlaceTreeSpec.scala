package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ClientPlaceTreeSpec extends AnyFunSuite {
  val t = ClientPlaceTree(pp = 2, dp = 2, cp = 2, tp = 2)

  test("world size is the product of all degrees") { assert(t.world == 16) }

  test("clients enumerate every rank exactly once, in order") {
    assert(t.clients.map(_.rank) == (0 until 16).toVector)
  }

  test("tp varies fastest, pp slowest in canonical order") {
    assert(t.clients(0) == ClientRef(0, 0, 0, 0, 0))
    assert(t.clients(1) == ClientRef(1, 0, 0, 0, 1))
    assert(t.clients(2) == ClientRef(2, 0, 0, 1, 0))
    assert(t.clients(8) == ClientRef(8, 1, 0, 0, 0))
  }

  test("client(rank) roundtrips") {
    (0 until t.world).foreach(r => assert(t.clients(r).rank == r))
  }

  test("bucketCount per axis") {
    assert(t.bucketCount("DP") == 2)
  }

  test("unknown axis is rejected") {
    Seq("EP", "CP", "WORLD").foreach { axis =>
      intercept[RuntimeException](t.bucketCount(axis))
      intercept[RuntimeException](t.bucketClients(axis))
    }
  }

  test("bucketOf DP ignores pp/cp/tp") {
    assert(t.bucketClients("DP")(1) == t.clients.filter(_.dp == 1))
  }

  test("bucketClients partitions the world for every axis") {
    val bs = t.bucketClients("DP")
    assert(bs.size == t.bucketCount("DP"))
    assert(bs.flatten.map(_.rank).sorted == (0 until 16).toVector)
  }

  test("broadcastFilter TP keeps only tp==0") {
    val kept = t.broadcastFilter(t.clients, Set("TP"))
    assert(kept.size == 8 && kept.forall(_.tp == 0))
  }

  test("broadcastFilter composes dims") {
    val kept = t.broadcastFilter(t.clients, Set("TP", "CP"))
    assert(kept.size == 4 && kept.forall(c => c.tp == 0 && c.cp == 0))
  }

  test("broadcastFilter with no dims keeps all") {
    assert(t.broadcastFilter(t.clients, Set.empty) == t.clients)
  }

  test("metadataOnly marks pipeline stages past the first") {
    assert(t.clients.count(t.metadataOnly) == 8)
    assert(!t.metadataOnly(t.clients(0)))
  }

  test("degenerate single-rank tree works") {
    val one = ClientPlaceTree(1, 1, 1, 1)
    assert(one.world == 1 && one.bucketCount("DP") == 1)
    assert(one.bucketClients("DP").flatten.size == 1)
  }

  test("degrees must be positive") {
    intercept[IllegalArgumentException](ClientPlaceTree(0, 1, 1, 1))
  }
}
