package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropHelper.check

class BalancerSpec extends AnyFunSuite {
  val id: Double => Double = x => x

  def skewed(n: Int, seed: Long = 7): Vector[Double] = {
    val rnd = new scala.util.Random(seed)
    Vector.fill(n)(math.exp(rnd.nextGaussian() * 1.5) * 100)
  }

  test("sequential preserves order and partitions all items") {
    val bins = Balancer.sequential((1 to 10).toVector, 3)
    assert(bins.flatten == (1 to 10).toVector)
    assert(bins.size == 3)
  }

  test("sequential deals contiguous runs") {
    val bins = Balancer.sequential((1 to 9).toVector, 3)
    assert(bins == Vector(Vector(1, 2, 3), Vector(4, 5, 6), Vector(7, 8, 9)))
  }

  test("sequential with more bins than items leaves empties") {
    val bins = Balancer.sequential(Vector(1, 2), 4)
    assert(bins.flatten.sorted == Vector(1, 2) && bins.size == 4)
  }

  test("sequential deals 600k items over 4096 bins without overflow") {
    val items = Vector.range(0, 600000)
    val bins  = Balancer.sequential(items, 4096)
    assert(bins.size == 4096)
    assert(bins.flatten == items) // contiguous, in order, each item once
    assert(bins.forall(b => b.size == 146 || b.size == 147))
  }

  test("greedy assigns every item exactly once") {
    val items = skewed(100)
    val bins  = Balancer.greedyBinPack(items, 7, id)
    assert(bins.flatten.sorted == items.sorted)
  }

  test("greedy beats sequential on skewed input") {
    val items = skewed(200)
    val g = Balancer.imbalance(Balancer.greedyBinPack(items, 8, id), id)
    val s = Balancer.imbalance(Balancer.sequential(items, 8), id)
    assert(g <= s)
  }

  test("greedy is near-optimal on uniform items") {
    val bins = Balancer.greedyBinPack(Vector.fill(64)(1.0), 8, id)
    assert(bins.forall(_.size == 8))
  }

  test("greedy is deterministic") {
    val items = skewed(50)
    assert(Balancer.greedyBinPack(items, 5, id) == Balancer.greedyBinPack(items, 5, id))
  }

  test("karmarkar-karp assigns every item exactly once") {
    val items = skewed(60)
    assert(Balancer.karmarkarKarp(items, 5, id).flatten.sorted == items.sorted)
  }

  test("karmarkar-karp is at least as good as sequential on skewed input") {
    val items = skewed(120, seed = 3)
    val k = Balancer.imbalance(Balancer.karmarkarKarp(items, 6, id), id)
    val s = Balancer.imbalance(Balancer.sequential(items, 6), id)
    assert(k <= s)
  }

  test("karmarkar-karp matches greedy quality within 5% across seeds") {
    (1L to 5L).foreach { seed =>
      val items = skewed(80, seed)
      val k = Balancer.imbalance(Balancer.karmarkarKarp(items, 4, id), id)
      val g = Balancer.imbalance(Balancer.greedyBinPack(items, 4, id), id)
      assert(k <= g * 1.05, s"seed=$seed kk=$k greedy=$g")
    }
  }

  test("karmarkar-karp on the classic two-way instance") {
    // {8,7,6,5,4} -> optimal spread 0 is impossible; KK reaches diff 2.
    val bins = Balancer.karmarkarKarp(Vector(8.0, 7.0, 6.0, 5.0, 4.0), 2, id)
    val loads = bins.map(_.sum).sorted
    assert(math.abs(loads(1) - loads(0)) <= 2.0)
  }

  test("empty input yields empty bins for all methods") {
    Seq("sequential", "greedybinpack", "karmarkar-karp").foreach { m =>
      val bins = Balancer.byName(m, Vector.empty[Double], 3, id)
      assert(bins.size == 3 && bins.forall(_.isEmpty))
    }
  }

  test("byName rejects unknown methods") {
    intercept[RuntimeException](Balancer.byName("zigzag", Vector(1.0), 2, id))
  }

  test("imbalance is 1.0 for perfectly balanced bins and >= 1 otherwise") {
    assert(Balancer.imbalance(Vector(Vector(1.0), Vector(1.0)), id) == 1.0)
    assert(Balancer.imbalance(Vector(Vector(3.0), Vector(1.0)), id) == 1.5)
    assert(Balancer.imbalance(Vector(Vector.empty[Double], Vector.empty[Double]), id) == 1.0)
  }

  test("single bin gets everything") {
    val items = skewed(20)
    Seq("sequential", "greedybinpack", "karmarkar-karp").foreach { m =>
      assert(Balancer.byName(m, items, 1, id).head.sorted == items.sorted)
    }
  }

  // ---- property tests -------------------------------------------------

  val itemsGen: Gen[List[Double]] = Gen.listOfN(40, Gen.choose(1.0, 1000.0))
  val binsGen: Gen[Int]           = Gen.choose(1, 9)

  test("property: no method loses or duplicates items") {
    check(Prop.forAll(itemsGen, binsGen) { (items, n) =>
      Seq("sequential", "greedybinpack", "karmarkar-karp").forall { m =>
        val bins = Balancer.byName(m, items.toVector, n, id)
        bins.size == n && bins.flatten.sorted == items.sorted
      }
    })
  }

  test("property: greedy max bin respects the LPT 4/3-of-OPT bound") {
    check(Prop.forAll(itemsGen, binsGen) { (items, n) =>
      items.isEmpty || {
        val bins  = Balancer.greedyBinPack(items.toVector, n, id)
        val lower = math.max(items.sum / n, items.max) // OPT lower bound
        bins.map(_.sum).max <= lower * (4.0 / 3.0) + 1e-9
      }
    })
  }

  test("property: karmarkar-karp respects the same partition invariants") {
    check(Prop.forAll(itemsGen, binsGen) { (items, n) =>
      val bins = Balancer.karmarkarKarp(items.toVector, n, id)
      bins.size == n && bins.flatten.sorted == items.sorted
    })
  }
}
