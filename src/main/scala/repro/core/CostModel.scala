package repro.core

import repro.costmodel.{FlopsModel, ModelConfig}
import repro.data.PackedSeq

/** One image occurrence inside a sample — the unit the encoder balancing
  * path schedules (interleaved balancing, Sec. 7.1 "Hybrid balance").
  */
final case class ImageItem(sampleId: Long, source: String, patches: Long)

/** Cost functions registered via the `cost(costfn)` primitive (Sec. 4.2).
  * Costs estimate compute/memory load from sample metadata alone and are
  * propagated into `balance`.
  */
object CostFns {

  /** Backbone cost of a packed sequence: linear in tokens, quadratic per
    * packed segment (the paper's "token count quadratic functions").
    */
  def backbone(m: ModelConfig): PackedSeq => Double =
    seq => FlopsModel.packedSequence(m, seq.segments.iterator.map(_.seqLen))

  /** Encoder cost of one image: per-image quadratic attention over its
    * patch tokens.
    */
  def encoder(enc: ModelConfig): ImageItem => Double =
    img => FlopsModel.image(enc, img.patches)
}
