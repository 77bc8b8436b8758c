package repro.core

/** The declarative orchestration builder behind the Fig. 9 programming
  * model. A strategy is written as a chain
  *
  * {{{
  * Orchestration(tree, items)
  *   .distribute("DP")
  *   .cost(fn)
  *   .broadcastAt("TP")
  *   .balance("greedybinpack", nBins = m)
  *   .plan()
  * }}}
  *
  * `T` is whatever the strategy schedules — `SampleMeta` or `PackedSeq` —
  * so one builder serves every modality drawn from the same shared
  * buffer. `plan()` returns the [bucket][bin] grid `StepPlan` holds, and
  * `consumers` says which clients fetch each bucket.
  */
final case class Orchestration[T](
    tree: ClientPlaceTree,
    items: Vector[T],
    axis: String = "DP",
    groupSize: Int = 1,
    costFn: T => Double = (_: T) => 1.0,
    method: String = "sequential",
    nBins: Int = 1,
    broadcastDims: Set[String] = Set.empty,
) {

  /** distribute(axis, group_size): pick the ClientPlaceTree level that
    * defines the buckets; `groupSize > 1` balances within subgroups of
    * that level to cut coordination cost on very large clusters.
    */
  def distribute(axis: String, groupSize: Int = 1): Orchestration[T] = {
    require(groupSize >= 1)
    tree.bucketCount(axis) // validates the axis eagerly
    copy(axis = axis, groupSize = groupSize)
  }

  /** cost(costfn): register the per-item cost estimate. */
  def cost(fn: T => Double): Orchestration[T] = copy(costFn = fn)

  /** balance(method, *): choose the balancing method and microbatch bin
    * count; `"sequential"` keeps arrival order inside each bucket (the
    * paper's option to keep the global batch unchanged).
    */
  def balance(method: String, nBins: Int = 1): Orchestration[T] = {
    require(nBins >= 1)
    copy(method = method, nBins = nBins)
  }

  /** broadcast_at(dim): the trainer broadcasts along `dim`, so only
    * dim-0 clients fetch payloads from the constructor.
    */
  def broadcastAt(dim: String): Orchestration[T] = copy(broadcastDims = broadcastDims + dim)

  /** plan(): run the balancing hierarchy and emit the plan as a
    * [bucket][bin] -> items grid.
    *
    * Bucket level: with `groupSize` g, items are first balanced over
    * ceil(n/g) superbuckets, then balanced again within each superbucket
    * over its member buckets. Bin level: items of each bucket are split
    * into `nBins` microbatch bins (inter-microbatch balancing), with the
    * same method.
    */
  def plan(): Vector[Vector[Vector[T]]] = {
    val n      = tree.bucketCount(axis)
    val nSuper = math.ceil(n.toDouble / groupSize).toInt
    val superBuckets = Balancer.byName(method, items, nSuper, costFn)
    val buckets = Vector.newBuilder[Vector[T]]
    superBuckets.zipWithIndex.foreach { case (group, si) =>
      val members = math.min(groupSize, n - si * groupSize)
      Balancer.byName(method, group, members, costFn).foreach(buckets += _)
    }
    val perBucket = buckets.result()
    require(perBucket.size == n, s"bucket construction bug: ${perBucket.size} != $n")
    perBucket.map(Balancer.byName(method, _, nBins, costFn))
  }

  /** Per bucket, the clients that fetch payloads after `broadcast_at`
    * thinning; PP>0 clients fetch metadata only.
    */
  def consumers: Vector[Vector[ClientRef]] =
    tree.bucketClients(axis).map(tree.broadcastFilter(_, broadcastDims))
}

object Orchestration {
  /** Entry point over packed sequences (backbone scheduling). */
  def packed(tree: ClientPlaceTree, items: Seq[repro.data.PackedSeq]): Orchestration[repro.data.PackedSeq] =
    Orchestration[repro.data.PackedSeq](tree, items.toVector)
}
