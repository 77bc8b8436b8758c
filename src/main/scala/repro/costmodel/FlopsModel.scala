package repro.costmodel

/** Analytic FLOPs model for LFM forward passes.
  *
  * The paper's workload imbalance stems from the O(l^2) attention term over
  * packed subsequences (Sec. 2.3): a packed sequence built from segments of
  * lengths l_1..l_k with a segmented (block-diagonal) mask costs
  * sum(l_i^2) in attention, while the linear (QKVO + FFN) terms scale with
  * the total token count. We model exactly that split.
  *
  * All figures are *forward* FLOPs; training multiplies by a constant
  * (~3x for fwd+bwd) which cancels in every ratio the benchmarks report.
  */
object FlopsModel {

  /** Linear-layer FLOPs per token: QKVO projections (8 h^2) plus the FFN
    * (2 matmuls of h x (ffnMult h), gated variants folded into ffnMult).
    * MoE backbones route each token through topK experts.
    */
  def linearPerToken(m: ModelConfig): Double = {
    val h     = m.hidden.toDouble
    val attnP = 8.0 * h * h
    val ffn   = 2.0 * 2.0 * h * (m.ffnMult * h) * m.topK
    m.layers * (attnP + ffn)
  }

  /** Attention-score FLOPs for one causal segment of length `l`:
    * QK^T and AV are each 2 * l^2 * h multiply-adds per layer.
    */
  def attentionSegment(m: ModelConfig, l: Long): Double =
    m.layers * 4.0 * m.hidden.toDouble * l.toDouble * l.toDouble

  /** Forward FLOPs of a packed sequence with segment lengths `segments`
    * under a segmented attention mask (no cross-contamination).
    */
  def packedSequence(m: ModelConfig, segments: Seq[Long]): Double = {
    val tokens = segments.map(_.toDouble).sum
    tokens * linearPerToken(m) + segments.map(attentionSegment(m, _)).sum
  }

  /** Forward FLOPs for one image of `patches` tokens through a ViT encoder.
    * Each image attends only within itself (per-image attention block).
    */
  def image(enc: ModelConfig, patches: Long): Double =
    patches * linearPerToken(enc) + attentionSegment(enc, patches)

  /** FLOPs of a bag of images through the encoder. */
  def images(enc: ModelConfig, patchCounts: Seq[Long]): Double =
    patchCounts.iterator.map(image(enc, _)).sum
}
