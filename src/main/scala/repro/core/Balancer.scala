package repro.core

import scala.collection.mutable

/** Load-balancing methods behind the `balance(method, *)` primitive
  * (Sec. 4.2): greedy bin-packing (longest-processing-time) and
  * Karmarkar–Karp multiway differencing, plus the order-preserving
  * sequential dealer that models the no-scheduling Vanilla baseline.
  */
object Balancer {

  /** Deals items into `nBins` contiguous chunks in arrival order, as a
    * coordination-free colocated dataloader would (each rank takes the
    * next slice of the stream). No cost awareness.
    */
  def sequential[T](items: Seq[T], nBins: Int): Vector[Vector[T]] = {
    require(nBins >= 1)
    val out = Vector.fill(nBins)(Vector.newBuilder[T])
    items.zipWithIndex.foreach { case (t, i) =>
      // Block-deal: rank r receives the r-th contiguous run of the stream.
      // Long: i * nBins passes Int.MaxValue at 4k-GPU scale.
      out(math.min(nBins - 1, (i.toLong * nBins / math.max(1, items.size)).toInt)) += t
    }
    out.map(_.result())
  }

  /** Greedy bin packing (LPT): sort by descending cost, place each item
    * into the currently lightest bin. O(n log n + n log k).
    */
  def greedyBinPack[T](items: Seq[T], nBins: Int, cost: T => Double): Vector[Vector[T]] = {
    require(nBins >= 1)
    val bins = Array.fill(nBins)(Vector.newBuilder[T])
    val load = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(x => (-x._1, -x._2)))
    (0 until nBins).foreach(i => load.enqueue((0.0, i)))
    items.sortBy(t => -cost(t)).foreach { t =>
      val (l, i) = load.dequeue()
      bins(i) += t
      load.enqueue((l + cost(t), i))
    }
    bins.toVector.map(_.result())
  }

  /** Karmarkar–Karp multiway number partitioning (the differencing
    * method, cited as [8] in the paper): repeatedly merge the two
    * partial partitions with the largest spread, pairing their largest
    * bins with each other's smallest. Typically beats LPT on skewed
    * inputs.
    */
  def karmarkarKarp[T](items: Seq[T], nBins: Int, cost: T => Double): Vector[Vector[T]] = {
    require(nBins >= 1)
    if (items.isEmpty) return Vector.fill(nBins)(Vector.empty)
    // A partial partition: bin loads (descending) with their contents.
    type Part = Vector[(Double, Vector[T])]
    def spread(p: Part): Double = p.head._1 - p.last._1
    implicit val ord: Ordering[Part] = Ordering.by(spread)
    val pq = mutable.PriorityQueue.empty[Part]
    items.foreach { t =>
      pq.enqueue((Vector((cost(t), Vector(t))) ++ Vector.fill(nBins - 1)((0.0, Vector.empty[T])))
        .sortBy(-_._1))
    }
    while (pq.size > 1) {
      val a = pq.dequeue(); val b = pq.dequeue()
      // Pair a's i-th largest bin with b's i-th smallest.
      val merged = a.indices.map { i =>
        val (la, ba) = a(i); val (lb, bb) = b(nBins - 1 - i)
        (la + lb, ba ++ bb)
      }.toVector.sortBy(-_._1)
      pq.enqueue(merged)
    }
    pq.dequeue().map(_._2)
  }

  /** Dispatch by method name as the primitive's string argument does. */
  def byName[T](method: String, items: Seq[T], nBins: Int, cost: T => Double): Vector[Vector[T]] =
    method match {
      case "sequential"      => sequential(items, nBins)
      case "greedybinpack"   => greedyBinPack(items, nBins, cost)
      case "karmarkar-karp"  => karmarkarKarp(items, nBins, cost)
      case other             => sys.error(s"unknown balance method $other")
    }

  /** max/mean load across bins; 1.0 means perfectly balanced. */
  def imbalance[T](bins: Seq[Seq[T]], cost: T => Double): Double = imbalance(bins.map(_.map(cost).sum))

  /** max/mean of per-bin loads; 1.0 means perfectly balanced. */
  def imbalance(loads: Seq[Double]): Double = {
    val mean = loads.sum / math.max(1, loads.size)
    if (mean == 0.0) 1.0 else loads.max / mean
  }
}
