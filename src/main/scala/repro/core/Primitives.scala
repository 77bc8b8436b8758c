package repro.core

/** The declarative orchestration builder behind the Fig. 9 programming
  * model. A strategy is written as a chain
  *
  * {{{
  * Orchestration(tree, items, sampleIds)
  *   .distribute("DP")
  *   .cost(fn)
  *   .broadcastAt("TP")
  *   .balance("greedybinpack", nBins = m)
  *   .plan()
  * }}}
  *
  * `T` is whatever the strategy schedules — `SampleMeta` or `PackedSeq` —
  * mirroring the paper's per-modality DGraphs built from the same shared
  * buffer. `plan()` returns the [bucket][bin] grid `StepPlan` holds, and
  * `consumers` says which clients fetch each bucket.
  */
final case class Orchestration[T](
    tree: ClientPlaceTree,
    items: Vector[T],
    sampleIds: T => Seq[Long],
    axis: String = "DP",
    groupSize: Int = 1,
    costFn: T => Double = (_: T) => 1.0,
    method: String = "sequential",
    nBins: Int = 1,
    intraBinReorder: Boolean = true,
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
    * count; `intraBinReorder = false` keeps arrival order inside each
    * bucket (the paper's option to keep the global batch unchanged).
    */
  def balance(method: String, nBins: Int = 1, intraBinReorder: Boolean = true): Orchestration[T] = {
    require(nBins >= 1)
    copy(method = method, nBins = nBins, intraBinReorder = intraBinReorder)
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
    * same method, or dealt in order when `intraBinReorder` is off.
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
    perBucket.map { bucketItems =>
      if (intraBinReorder) Balancer.byName(method, bucketItems, nBins, costFn)
      else Balancer.sequential(bucketItems, nBins)
    }
  }

  /** Per bucket, the clients that fetch payloads after `broadcast_at`
    * thinning; PP>0 clients fetch metadata only.
    */
  def consumers: Vector[Vector[ClientRef]] =
    tree.bucketClients(axis).map(tree.broadcastFilter(_, broadcastDims))

  /** Records the plan into a DGraph: sampled items transition to
    * Assigned(bucket, bin), giving the lineage view of Sec. 4.1.
    */
  def planInto(g: DGraph): (Vector[Vector[Vector[T]]], DGraph) = {
    val p = plan()
    val assigned = for {
      (bucket, b) <- p.zipWithIndex; (bin, m) <- bucket.zipWithIndex; t <- bin; id <- sampleIds(t)
      if g.ids.contains(id)
    } yield id -> SampleState.Assigned(b, m)
    (p, assigned.foldLeft(g) { case (acc, (id, st)) => acc.transition(id, st, Some(s"balance:$method")) })
  }
}

object Orchestration {
  /** Entry point over raw sample metadata. */
  def samples(tree: ClientPlaceTree, items: Seq[SampleMeta]): Orchestration[SampleMeta] =
    Orchestration[SampleMeta](tree, items.toVector, m => Seq(m.id))

  /** Entry point over packed sequences (backbone scheduling). */
  def packed(tree: ClientPlaceTree, items: Seq[repro.data.PackedSeq]): Orchestration[repro.data.PackedSeq] =
    Orchestration[repro.data.PackedSeq](tree, items.toVector, _.segments.map(_.id))
}
