package repro.core

import repro.costmodel.ModelConfig
import repro.data.{Packing, PackedSeq}

/** A fully-resolved step plan for a VLM: which packed sequences every DP
  * bucket trains on per microbatch, and which images every GPU's encoder
  * shard processes per microbatch. This is what the training-time
  * simulator and the Data Constructors consume.
  */
final case class StepPlan(
    tree: ClientPlaceTree,
    nBins: Int,
    /** [dpBucket][bin] -> packed sequences. */
    backboneCells: Vector[Vector[Vector[PackedSeq]]],
    /** [worldRank][bin] -> images (encoder runs world-wide data parallel). */
    encoderCells: Vector[Vector[Vector[ImageItem]]],
) {
  def allSeqs: Vector[PackedSeq]   = backboneCells.flatten.flatten
  def allImages: Vector[ImageItem] = encoderCells.flatten.flatten
  def totalTokens: Long            = allSeqs.map(_.tokens).sum
}

/** One row of the plan as the Spark Data Constructor consumes it: `pos`
  * is the sample's segment position in packed sequence `seqId`.
  */
final case class PlanRow(sampleId: Long, source: String, bucket: Int, bin: Int, seqId: Long, pos: Int)

/** The Planner (Sec. 3): synthesizes loading plans from Source Loader
  * buffer metadata. The three orchestration strategies here are the
  * evaluation baselines of Sec. 7.1: Vanilla (no scheduling), Backbone
  * balance (inter-microbatch balancing on the LLM only), and Hybrid
  * balance (interleaved encoder balancing + backbone balance, Fig. 9).
  */
object Planner {

  /** Extracts the image items of a set of packed sequences. */
  def imagesOf(seqs: Seq[PackedSeq]): Vector[ImageItem] =
    seqs.flatMap(_.segments).collect {
      case s if s.imgPatches > 0 => ImageItem(s.id, s.source, s.imgPatches)
    }.toVector

  /** Images follow their sequence's bucket: dealt in order over the
    * bucket's own GPU ranks, its CP/TP/PP replicas acting as the encoder's
    * data-parallel shards (the coordination-free placement both Vanilla
    * and Backbone-balance use).
    */
  private def colocatedEncoderCells(tree: ClientPlaceTree, nBins: Int,
                                    backbone: Vector[Vector[Vector[PackedSeq]]])
      : Vector[Vector[Vector[ImageItem]]] = {
    val cells = Array.fill(tree.world, nBins)(Vector.newBuilder[ImageItem])
    val bucketRanks = tree.bucketClients("DP").map(_.map(_.rank))
    for (b <- backbone.indices; m <- 0 until nBins) {
      val ranks = bucketRanks(b)
      imagesOf(backbone(b)(m)).zipWithIndex.foreach { case (img, i) =>
        cells(ranks(i % ranks.size))(m) += img
      }
    }
    Vector.tabulate(tree.world, nBins)((r, m) => cells(r)(m).result())
  }

  /** The colocated-dataloader behaviour (SPMD, Sec. 2.2): each DP rank's
    * private loader takes a contiguous, equal-*count* shard of the sample
    * stream and packs it independently. Equal sample counts with skewed
    * lengths mean unequal token totals and unequal quadratic costs per
    * rank — the Fig. 3 imbalance. Sequences deal into bins in order.
    */
  def vanilla(buffer: Seq[SampleMeta], tree: ClientPlaceTree, ctx: Long, nBins: Int): StepPlan = {
    var nextSeqId = 0L
    val backbone = Balancer.sequential(buffer, tree.dp).map { shard =>
      val seqs = Packing.firstFit(shard, ctx).map { s =>
        nextSeqId += 1; s.copy(seqId = nextSeqId - 1)
      }
      Balancer.sequential(seqs, nBins)
    }
    StepPlan(tree, nBins, backbone, colocatedEncoderCells(tree, nBins, backbone))
  }

  /** Packs the buffer, then cost-balances the sequences over DP buckets
    * and over bins within each: the backbone grid of both balanced
    * strategies.
    */
  private def balancedBackbone(buffer: Seq[SampleMeta], tree: ClientPlaceTree, ctx: Long, nBins: Int,
                               bb: ModelConfig, method: String): Vector[Vector[Vector[PackedSeq]]] =
    Orchestration.packed(tree, Packing.firstFit(buffer, ctx))
      .distribute("DP")
      .cost(CostFns.backbone(bb))
      .balance(method, nBins)
      .plan()

  /** Inter-microbatch balancing on the LLM backbone only: sequences are
    * cost-balanced over DP buckets then over bins; images still follow
    * their sequences.
    */
  def backboneBalance(buffer: Seq[SampleMeta], tree: ClientPlaceTree, ctx: Long,
                      nBins: Int, bb: ModelConfig, method: String = "greedybinpack"): StepPlan = {
    val backbone = balancedBackbone(buffer, tree, ctx, nBins, bb, method)
    StepPlan(tree, nBins, backbone, colocatedEncoderCells(tree, nBins, backbone))
  }

  /** Hybrid balance (Fig. 9's VLM strategy): backbone balance plus
    * interleaved balancing of each microbatch's images across all world
    * ranks with the encoder cost model.
    */
  def hybridBalance(buffer: Seq[SampleMeta], tree: ClientPlaceTree, ctx: Long,
                    nBins: Int, bb: ModelConfig, enc: ModelConfig,
                    method: String = "greedybinpack"): StepPlan = {
    val backbone = balancedBackbone(buffer, tree, ctx, nBins, bb, method)
    val perBin = Vector.tabulate(nBins) { m =>
      Balancer.greedyBinPack(backbone.flatMap(bucket => imagesOf(bucket(m))), tree.world, CostFns.encoder(enc))
    }
    StepPlan(tree, nBins, backbone, Vector.tabulate(tree.world, nBins)((r, m) => perBin(m)(r)))
  }

  /** Flattens a step plan to sample-level rows for the Spark Data
    * Constructor (sample -> dp bucket, microbatch, packed sequence and
    * position in it).
    */
  def planRows(plan: StepPlan): Vector[PlanRow] =
    for {
      (bucket, b) <- plan.backboneCells.zipWithIndex
      (bin, m)    <- bucket.zipWithIndex
      seq         <- bin
      (s, pos)    <- seq.segments.zipWithIndex
    } yield PlanRow(s.id, s.source, b, m, seq.seqId, pos)
}
