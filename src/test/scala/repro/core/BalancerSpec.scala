package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropHelper.check

class BalancerSpec extends AnyFunSuite {
  val id: Double => Double = x => x

  /** Both methods, each as a (name, balance items over n bins) pair. */
  val methods: Seq[(String, (Seq[Double], Int) => Vector[Vector[Double]])] = Seq(
    "sequential"    -> ((xs: Seq[Double], n: Int) => Balancer.sequential(xs, n)),
    "greedyBinPack" -> ((xs: Seq[Double], n: Int) => Balancer.greedyBinPack(xs, n, id)))

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

  test("greedy evaluates the cost function once per item") {
    val items = skewed(500)
    var calls = 0
    val counting: Double => Double = { x => calls += 1; x }
    val bins = Balancer.greedyBinPack(items, 8, counting)
    assert(calls == items.size)
    assert(bins == Balancer.greedyBinPack(items, 8, id))
  }

  test("greedy is deterministic") {
    val items = skewed(50)
    assert(Balancer.greedyBinPack(items, 5, id) == Balancer.greedyBinPack(items, 5, id))
  }

  test("empty input yields empty bins for all methods") {
    methods.foreach { case (m, balance) =>
      val bins = balance(Vector.empty, 3)
      assert(bins.size == 3 && bins.forall(_.isEmpty), m)
    }
  }

  test("imbalance is 1.0 for perfectly balanced bins and >= 1 otherwise") {
    assert(Balancer.imbalance(Vector(Vector(1.0), Vector(1.0)), id) == 1.0)
    assert(Balancer.imbalance(Vector(Vector(3.0), Vector(1.0)), id) == 1.5)
    assert(Balancer.imbalance(Vector(Vector.empty[Double], Vector.empty[Double]), id) == 1.0)
  }

  test("single bin gets everything") {
    val items = skewed(20)
    methods.foreach { case (m, balance) =>
      assert(balance(items, 1).head.sorted == items.sorted, m)
    }
  }

  // ---- property tests -------------------------------------------------

  val itemsGen: Gen[List[Double]] = Gen.listOfN(40, Gen.choose(1.0, 1000.0))
  val binsGen: Gen[Int]           = Gen.choose(1, 9)

  test("property: no method loses or duplicates items") {
    check(Prop.forAll(itemsGen, binsGen) { (items, n) =>
      methods.forall { case (_, balance) =>
        val bins = balance(items, n)
        bins.size == n && bins.flatten.sorted == items.sorted
      }
    })
  }

  test("property: greedy equals the reference LPT on tie-heavy inputs") {
    // Integer costs in 0..5 tie often; items are their arrival positions, so
    // any change to the order of equal costs or to the bin tie-break shows.
    val tieHeavy = for {
      n     <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 60))
      costs <- Gen.listOfN(n, Gen.choose(0, 5).map(_.toDouble))
      nBins <- Gen.frequency(1 -> Gen.const(1), 4 -> Gen.choose(2, 8), 1 -> Gen.choose(n + 1, n + 5))
    } yield (costs.toVector, nBins)
    check(Prop.forAll(tieHeavy) { case (costs, nBins) =>
      val items = costs.indices.toVector
      Balancer.greedyBinPack(items, nBins, costs) == GreedyReference.greedyBinPack(items, nBins, costs)
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
}
