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
  * buffer. Buckets are always the tree's DP groups: the paper's
  * `group_size` sub-grouping and its CP/WORLD axes are not modelled,
  * since a whole world-4096 hybrid plan takes a fraction of a second.
  * `plan()` returns the [bucket][bin] grid `StepPlan` holds, and
  * `consumers` says which clients fetch each bucket.
  */
final case class Orchestration[T](
    tree: ClientPlaceTree,
    items: Vector[T],
    costFn: T => Double = (_: T) => 1.0,
    nBins: Int = 1,
    broadcastDims: Set[String] = Set.empty,
) {

  /** distribute(axis): the ClientPlaceTree level that defines the
    * buckets. Only `"DP"` is accepted; anything else fails here.
    */
  def distribute(axis: String): Orchestration[T] = {
    tree.bucketCount(axis) // validates the axis eagerly
    this
  }

  /** cost(costfn): register the per-item cost estimate. */
  def cost(fn: T => Double): Orchestration[T] = copy(costFn = fn)

  /** balance(method, *): choose the balancing method and microbatch bin
    * count. Only `"greedybinpack"` is accepted; anything else fails here.
    */
  def balance(method: String, nBins: Int = 1): Orchestration[T] = {
    require(method == "greedybinpack", s"unknown balance method $method")
    require(nBins >= 1)
    copy(nBins = nBins)
  }

  /** broadcast_at(dim): the trainer broadcasts along `dim`, so only
    * dim-0 clients fetch payloads from the constructor.
    */
  def broadcastAt(dim: String): Orchestration[T] = copy(broadcastDims = broadcastDims + dim)

  /** plan(): greedy-pack the items over the DP buckets, then each
    * bucket's items over `nBins` microbatch bins (inter-microbatch
    * balancing), and emit the [bucket][bin] -> items grid.
    *
    * `costFn` is called once per item, on the calling thread, and both
    * levels read that price. From 1024 items on, the buckets' bin
    * balancing runs in parallel on the common ForkJoin pool, each bucket's
    * bins written to the bucket's own index, so the plan is the same as a
    * single-threaded run's.
    */
  def plan(): Vector[Vector[Vector[T]]] = {
    val costs   = items.iterator.map(costFn).toArray
    val price   = (i: Int) => costs(i)
    val buckets = Balancer.greedyBinPack(items.indices, tree.dp, price)
    Balancer.parTabulate(buckets.size, items.size)(b => Balancer.greedyBinPack(buckets(b), nBins, price).map(_.map(items)))
  }

  /** Per bucket, the clients that fetch payloads after `broadcast_at`
    * thinning; PP>0 clients fetch metadata only.
    */
  def consumers: Vector[Vector[ClientRef]] =
    tree.bucketClients("DP").map(tree.broadcastFilter(_, broadcastDims))
}

object Orchestration {
  /** Entry point over packed sequences (backbone scheduling). */
  def packed(tree: ClientPlaceTree, items: Seq[repro.data.PackedSeq]): Orchestration[repro.data.PackedSeq] =
    Orchestration[repro.data.PackedSeq](tree, items.toVector)
}
