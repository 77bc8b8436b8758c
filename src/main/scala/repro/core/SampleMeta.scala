package repro.core

/** Lightweight metadata describing one training sample in a Source Loader
  * read buffer. This is the currency of the Planner: mixing, packing and
  * balance decisions are all computed over `SampleMeta`, never over
  * payloads (Sec. 4.1: the data plane operates on lightweight metadata).
  *
  * @param id         globally unique sample id
  * @param source     producing source name
  * @param textLen    text tokens in the sample
  * @param imgPatches image-patch tokens in the sample (0 for pure text)
  */
final case class SampleMeta(id: Long, source: String, textLen: Long, imgPatches: Long) {
  /** Tokens the LLM backbone consumes: text interleaved with patch tokens. */
  def seqLen: Long = textLen + imgPatches
}
