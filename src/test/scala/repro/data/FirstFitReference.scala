package repro.data

import repro.core.SampleMeta

/** The linear-scan first-fit packer that `Packing.firstFit` replaced,
  * kept verbatim as the reference its output must equal. O(n²): each
  * sample scans every open sequence.
  */
object FirstFitReference {

  def firstFit(samples: Seq[SampleMeta], ctx: Long): Vector[PackedSeq] = {
    require(ctx > 0, "context length must be positive")
    val open = scala.collection.mutable.ArrayBuffer.empty[(Long, scala.collection.mutable.ArrayBuffer[SampleMeta])]
    samples.foreach { s0 =>
      val s =
        if (s0.seqLen <= ctx) s0
        else {
          val text = math.min(s0.textLen, math.max(0L, ctx - s0.imgPatches))
          val img  = math.min(s0.imgPatches, ctx)
          s0.copy(textLen = math.min(text, ctx - math.min(img, ctx)), imgPatches = math.min(img, ctx))
        }
      open.find { case (used, _) => used + s.seqLen <= ctx } match {
        case Some(slot @ (used, buf)) =>
          buf += s
          open.update(open.indexOf(slot), (used + s.seqLen, buf))
        case None =>
          open += ((s.seqLen, scala.collection.mutable.ArrayBuffer(s)))
      }
    }
    open.zipWithIndex.map { case ((_, buf), i) => PackedSeq(i.toLong, buf.toVector) }.toVector
  }
}
