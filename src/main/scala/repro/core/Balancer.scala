package repro.core

import scala.collection.mutable

/** Load-balancing methods behind the `balance(method, *)` primitive
  * (Sec. 4.2): greedy bin-packing (longest-processing-time), plus the
  * order-preserving sequential dealer that models the no-scheduling
  * Vanilla baseline.
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
    * into the currently lightest bin. O(n log n + n log k), with `cost`
    * evaluated once per item.
    */
  def greedyBinPack[T](items: Seq[T], nBins: Int, cost: T => Double): Vector[Vector[T]] = {
    require(nBins >= 1)
    val bins = Array.fill(nBins)(Vector.newBuilder[T])
    val load = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by(x => (-x._1, -x._2)))
    (0 until nBins).foreach(i => load.enqueue((0.0, i)))
    items.map(t => (t, cost(t))).sortBy(-_._2).foreach { case (t, c) =>
      val (l, i) = load.dequeue()
      bins(i) += t
      load.enqueue((l + c, i))
    }
    bins.toVector.map(_.result())
  }

  /** Dispatch by method name as the primitive's string argument does. */
  def byName[T](method: String, items: Seq[T], nBins: Int, cost: T => Double): Vector[Vector[T]] =
    method match {
      case "sequential"    => sequential(items, nBins)
      case "greedybinpack" => greedyBinPack(items, nBins, cost)
      case other           => sys.error(s"unknown balance method $other")
    }

  /** max/mean load across bins; 1.0 means perfectly balanced. */
  def imbalance[T](bins: Seq[Seq[T]], cost: T => Double): Double = imbalance(bins.map(_.map(cost).sum))

  /** max/mean of per-bin loads; 1.0 means perfectly balanced. */
  def imbalance(loads: Seq[Double]): Double = {
    val mean = loads.sum / math.max(1, loads.size)
    if (mean == 0.0) 1.0 else loads.max / mean
  }
}
