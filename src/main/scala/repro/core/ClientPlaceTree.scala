package repro.core

/** One trainer-side client (a GPU rank) addressed by its coordinates in
  * the 4D parallelism mesh (PP outermost, then DP, CP, TP innermost).
  */
final case class ClientRef(rank: Int, pp: Int, dp: Int, cp: Int, tp: Int)

/** Logical tree model of the trainer device mesh (Sec. 4.1).
  *
  * Level order from the root is PP -> DP -> CP -> TP -> leaf rank, matching
  * the order in which parallelism transformations consume data: a PP stage
  * holds DP groups, each DP group holds CP groups, each CP group holds TP
  * ranks. The tree answers the two questions the data plane needs:
  * how many DP buckets `distribute("DP")` creates, and which concrete
  * clients consume each bucket (optionally thinned by `broadcast_at`).
  */
final case class ClientPlaceTree(pp: Int, dp: Int, cp: Int, tp: Int) {
  require(pp >= 1 && dp >= 1 && cp >= 1 && tp >= 1, "all degrees must be >= 1")

  val world: Int = pp * dp * cp * tp

  /** All clients in canonical rank order (tp fastest-varying). */
  val clients: Vector[ClientRef] = {
    val out = Vector.newBuilder[ClientRef]
    var rank = 0
    for (p <- 0 until pp; d <- 0 until dp; c <- 0 until cp; t <- 0 until tp) {
      out += ClientRef(rank, p, d, c, t)
      rank += 1
    }
    out.result()
  }

  /** Number of data buckets `distribute(axis)` creates: one per DP group.
    * `"DP"` is the only axis.
    */
  def bucketCount(axis: String): Int = {
    require(axis == "DP", s"unknown distribute axis $axis")
    dp
  }

  /** Clients of every DP bucket, in bucket order. */
  def bucketClients(axis: String): Vector[Vector[ClientRef]] = {
    val grouped = clients.groupBy(_.dp)
    Vector.tabulate(bucketCount(axis))(grouped)
  }

  /** Thins a client set per `broadcast_at(dim)`: only the dim-0 client of
    * each broadcast group fetches from the constructor; the rest receive
    * the tensor via a trainer-side collective (Sec. 4.2).
    */
  def broadcastFilter(cs: Vector[ClientRef], dims: Set[String]): Vector[ClientRef] =
    cs.filter { c =>
      (!dims.contains("TP") || c.tp == 0) &&
      (!dims.contains("CP") || c.cp == 0) &&
      (!dims.contains("DP") || c.dp == 0)
    }

  /** Pipeline stages past the first need only batch metadata, not payloads
    * (Sec. 2.1): true when this client's tensors can be stripped.
    */
  def metadataOnly(c: ClientRef): Boolean = c.pp > 0
}
