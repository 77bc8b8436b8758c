package repro.data

import repro.core.SampleMeta

import scala.collection.mutable

/** A packed training sequence: several subsequences (samples) merged into
  * one fixed-context sequence with a segmented attention mask
  * (Sec. 2.1 "Microbatch Transformation" — packing).
  *
  * @param seqId    id of the packed sequence within its batch
  * @param segments samples packed into this sequence, in pack order
  */
final case class PackedSeq(seqId: Long, segments: Vector[SampleMeta]) {
  def tokens: Long            = segments.map(_.seqLen).sum
  def segmentLens: Seq[Long]  = segments.map(_.seqLen)
  def padding(ctx: Long): Long = ctx - tokens
}

/** Sequence packing (the paper packs subsequences into complete sequences
  * before balancing; Sec. 2.1, Fig. 9 cost model inputs).
  */
object Packing {

  /** First-fit packing in arrival order: each sample goes into the first
    * open sequence with room, else opens a new one. Samples longer than
    * `ctx` are truncated to `ctx` (production truncates/chunks upstream;
    * this keeps every segment feasible).
    *
    * O(n log n) over a max segment tree of remaining capacity. Leaves are
    * sequence slots, padded to a power of two >= `samples.size`, and each
    * starts at `ctx`. Open sequences are always a prefix of the slots, and
    * an unopened slot holds a full `ctx`, so the leftmost leaf with room
    * for a sample is the first open sequence that fits it, or else the
    * next new sequence: the first-fit rule, zero-length samples included.
    */
  def firstFit(samples: Seq[SampleMeta], ctx: Long): Vector[PackedSeq] = {
    require(ctx > 0, "context length must be positive")
    var leaves = 1
    while (leaves < samples.size) leaves <<= 1
    // room(1) is the root; room(leaves + i) is slot i's remaining capacity.
    val room = Array.fill(2 * leaves)(ctx)
    val open = mutable.ArrayBuffer.empty[mutable.Builder[SampleMeta, Vector[SampleMeta]]]
    samples.foreach { s0 =>
      val s =
        if (s0.seqLen <= ctx) s0
        else {
          val img = math.min(s0.imgPatches, ctx)
          s0.copy(textLen = math.min(s0.textLen, ctx - img), imgPatches = img)
        }
      var node = 1
      while (node < leaves) node = if (room(2 * node) >= s.seqLen) 2 * node else 2 * node + 1
      val slot = node - leaves
      if (slot == open.size) open += Vector.newBuilder[SampleMeta]
      open(slot) += s
      room(node) -= s.seqLen
      node >>= 1
      while (node >= 1) {
        room(node) = math.max(room(2 * node), room(2 * node + 1))
        node >>= 1
      }
    }
    open.zipWithIndex.map { case (buf, i) => PackedSeq(i.toLong, buf.result()) }.toVector
  }

  /** Packing efficiency: fraction of context slots holding real tokens. */
  def efficiency(seqs: Seq[PackedSeq], ctx: Long): Double =
    if (seqs.isEmpty) 1.0 else seqs.map(_.tokens).sum.toDouble / (seqs.size.toDouble * ctx)
}
