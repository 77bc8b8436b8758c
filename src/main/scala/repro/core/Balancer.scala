package repro.core

import java.util.stream.IntStream
import scala.reflect.ClassTag

/** Load balancing: greedy bin-packing (longest-processing-time), the one
  * method behind the `balance(method, *)` primitive (Sec. 4.2), plus the
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
    * into the currently lightest bin.
    *
    * `cost` is evaluated once per item, into a `Double` array. A stable
    * merge sort orders the item positions by descending cost, so items of
    * equal cost keep their arrival order. A binary min-heap of bin indices,
    * keyed by (load, bin index), picks the bin: the lightest, and of equally
    * light bins the lowest index. Each bin lists its items in placement
    * order. O(n log n + n log k) time for n items and k bins, over
    * primitive arrays only.
    */
  def greedyBinPack[T](items: Seq[T], nBins: Int, cost: T => Double): Vector[Vector[T]] = {
    require(nBins >= 1)
    val xs = items.toIndexedSeq
    val n  = xs.size
    val c  = new Array[Double](n)
    var i  = 0
    while (i < n) { c(i) = cost(xs(i)); i += 1 }
    val order = byDescendingCost(c)
    val load  = new Array[Double](nBins)
    val heap  = Array.range(0, nBins) // equal loads: ascending index is a valid heap
    // Bin a is preferred to bin b: lighter, or as light with a lower index.
    def before(a: Int, b: Int): Boolean = {
      val d = java.lang.Double.compare(load(a), load(b))
      d < 0 || (d == 0 && a < b)
    }
    val binOf = new Array[Int](n) // bin of the k-th placed item
    val sizes = new Array[Int](nBins)
    var k = 0
    while (k < n) {
      val b = heap(0)
      binOf(k) = b
      sizes(b) += 1
      load(b) += c(order(k))
      // Only the root's key grew: sift it down.
      var p = 0
      var sifting = true
      while (sifting && 2 * p + 1 < nBins) {
        var ch = 2 * p + 1
        if (ch + 1 < nBins && before(heap(ch + 1), heap(ch))) ch += 1
        if (before(heap(ch), heap(p))) {
          val t = heap(p); heap(p) = heap(ch); heap(ch) = t
          p = ch
        } else sifting = false
      }
      k += 1
    }
    // Group the placed items by bin, keeping placement order (a counting sort).
    val start = new Array[Int](nBins + 1)
    var b = 0
    while (b < nBins) { start(b + 1) = start(b) + sizes(b); b += 1 }
    val next    = start.clone()
    val grouped = new Array[Int](n)
    k = 0
    while (k < n) {
      grouped(next(binOf(k))) = order(k)
      next(binOf(k)) += 1
      k += 1
    }
    Vector.tabulate(nBins)(b => Vector.tabulate(sizes(b))(j => xs(grouped(start(b) + j))))
  }

  /** Positions of `c` by descending cost, equal costs in position order: a
    * bottom-up merge sort that orders as `sortBy(-cost)` does, under
    * `java.lang.Double.compare`.
    */
  private def byDescendingCost(c: Array[Double]): Array[Int] = {
    val n     = c.length
    var src   = Array.range(0, n)
    var dst   = new Array[Int](n)
    var width = 1
    while (width < n) {
      var lo = 0
      while (lo < n) {
        val mid = lo + math.min(width, n - lo)
        val hi  = mid + math.min(width, n - mid)
        var i = lo
        var j = mid
        var k = lo
        while (k < hi) {
          // Take the left run's item unless the right's cost is strictly higher.
          if (j >= hi || (i < mid && java.lang.Double.compare(-c(src(j)), -c(src(i))) >= 0)) {
            dst(k) = src(i); i += 1
          } else {
            dst(k) = src(j); j += 1
          }
          k += 1
        }
        lo = hi
      }
      val t = src; src = dst; dst = t
      width = if (width > n / 2) n else width * 2
    }
    src
  }

  /** Below this many items in all, balancing them takes under a
    * millisecond, and handing the work to the ForkJoin pool saves nothing.
    */
  private val MinParallelItems = 1024

  /** `Vector.tabulate(n)(f)`, for `f(i)` that together work through
    * `items` items. From `MinParallelItems` items on, the `f(i)` are
    * computed on the common ForkJoin pool; below, on the calling thread.
    * Each result is written to its own index, so the output does not
    * depend on either choice or on scheduling when `f` is pure.
    */
  private[core] def parTabulate[A: ClassTag](n: Int, items: Int)(f: Int => A): Vector[A] = {
    val out     = new Array[A](n)
    val indices = IntStream.range(0, n)
    (if (items >= MinParallelItems) indices.parallel() else indices).forEach(i => out(i) = f(i))
    out.toVector
  }

  /** max/mean load across bins; 1.0 means perfectly balanced. */
  def imbalance[T](bins: Seq[Seq[T]], cost: T => Double): Double = imbalance(bins.map(_.map(cost).sum))

  /** max/mean of per-bin loads; 1.0 means perfectly balanced. */
  def imbalance(loads: Seq[Double]): Double = {
    val mean = loads.sum / math.max(1, loads.size)
    if (mean == 0.0) 1.0 else loads.max / mean
  }
}
