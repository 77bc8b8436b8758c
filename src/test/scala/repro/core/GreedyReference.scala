package repro.core

import scala.collection.mutable

/** The boxed greedy bin packer (LPT) that `Balancer.greedyBinPack`
  * replaced, kept verbatim as the reference its output must equal: a
  * `sortBy` of (item, cost) pairs and a `PriorityQueue` of (load, bin)
  * pairs.
  */
object GreedyReference {

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
}
