package stepbench

import repro.core.{ClientPlaceTree, Planner, PlanRow, SampleMeta, StepPlan}

/** One delivered row as the trainer client `rank` receives it. */
final case class Delivered(bucket: Int, bin: Int, seqId: Long, rank: Int,
                           segLens: Vector[Long], tokens: Long)

/** The invariants a step must keep. Each function returns the broken ones
  * as messages; an empty result means the step's output is correct.
  */
object Checks {

  /** Plan invariants: every input sample planned exactly once, every packed
    * sequence fits the context, tokens conserved (samples longer than the
    * context are truncated to it), and each bin's encoder images are
    * exactly the images of that bin's sequences.
    */
  def plan(input: Seq[SampleMeta], plan: StepPlan, rows: Seq[PlanRow], ctx: Long): Vector[String] = {
    val errs = Vector.newBuilder[String]
    val planned = rows.groupBy(_.sampleId)
    val dup     = planned.count(_._2.size > 1)
    if (dup > 0) errs += s"$dup sample ids appear in more than one plan row"
    val inputIds = input.map(_.id).toSet
    val missing  = inputIds.count(id => !planned.contains(id))
    if (missing > 0) errs += s"$missing drawn samples are in no plan row"
    val extra = planned.keySet.count(id => !inputIds.contains(id))
    if (extra > 0) errs += s"$extra plan rows name samples that were not drawn"

    val seqs = plan.allSeqs
    val over = seqs.count(_.tokens > ctx)
    if (over > 0) errs += s"$over packed sequences exceed ctx $ctx"
    val expected = input.map(s => math.min(s.seqLen, ctx)).sum
    if (plan.totalTokens != expected)
      errs += s"planned tokens ${plan.totalTokens} != input tokens $expected"

    for (m <- 0 until plan.nBins) {
      val want = Planner.imagesOf(plan.backboneCells.flatMap(_(m))).map(i => (i.sampleId, i.patches)).sorted
      val got  = plan.encoderCells.flatMap(_(m)).map(i => (i.sampleId, i.patches)).sorted
      if (want != got) errs += s"bin $m: encoder images differ from the images of its sequences"
    }
    errs.result()
  }

  /** Delivery invariants: each packed sequence reaches exactly its DP
    * bucket's `broadcast_at` consumers, in its planned (bucket, bin), with
    * `tokens` and pack-order `seg_lens` equal to the plan's, and delivered
    * tokens sum to the plan's total.
    */
  def delivery(plan: StepPlan, delivered: Seq[Delivered], tree: ClientPlaceTree,
               broadcast: Set[String]): Vector[String] = {
    val errs = Vector.newBuilder[String]
    val consumers = tree.bucketClients("DP").map(cs => tree.broadcastFilter(cs, broadcast).map(_.rank).toSet)
    val planned = (for {
      (bucket, b) <- plan.backboneCells.zipWithIndex
      (bin, m)    <- bucket.zipWithIndex
      seq         <- bin
    } yield seq.seqId -> (b, m, seq)).toMap
    val bySeq = delivered.groupBy(_.seqId)

    val unknown = bySeq.keySet.count(id => !planned.contains(id))
    if (unknown > 0) errs += s"$unknown delivered sequences are not in the plan"
    var wrongPlace, wrongRanks, wrongTokens, wrongOrder, lost = 0
    planned.foreach { case (id, (b, m, seq)) =>
      bySeq.get(id) match {
        case None => lost += 1
        case Some(rs) =>
          if (rs.exists(r => r.bucket != b || r.bin != m)) wrongPlace += 1
          if (rs.map(_.rank).sorted != consumers(b).toVector.sorted) wrongRanks += 1
          if (rs.exists(_.tokens != seq.tokens)) wrongTokens += 1
          if (rs.exists(_.segLens != seq.segmentLens.toVector)) wrongOrder += 1
      }
    }
    if (lost > 0) errs += s"$lost planned sequences were not delivered"
    if (wrongPlace > 0) errs += s"$wrongPlace sequences delivered to the wrong (bucket, bin)"
    if (wrongRanks > 0) errs += s"$wrongRanks sequences reached other ranks than their bucket's consumers"
    if (wrongTokens > 0) errs += s"$wrongTokens sequences delivered with other token counts than planned"
    if (wrongOrder > 0) errs += s"$wrongOrder sequences delivered with seg_lens out of pack order"
    val tokens = bySeq.values.map(_.head.tokens).sum
    if (tokens != plan.totalTokens) errs += s"delivered tokens $tokens != planned ${plan.totalTokens}"
    errs.result()
  }
}
