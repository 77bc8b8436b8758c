package repro.sim

import repro.core.{Balancer, StepPlan}
import repro.costmodel.{FlopsModel, ModelConfig}

/** Iteration-time simulator over a planned step (reproduces the Fig. 13
  * throughput comparison).
  *
  * Model: encoders and the backbone are colocated (Sec. 2.3 benchmark
  * setup). Within a microbatch bin every GPU first runs its encoder shard
  * then its backbone shard; the bin completes when the slowest GPU
  * finishes (PP p2p / CP collectives synchronize microbatch boundaries),
  * so iteration time is the sum over bins of the per-bin maximum, plus
  * the standard pipeline bubble factor (p - 1) / m.
  */
object TrainSim {

  final case class IterResult(
      iterTimeSec: Double,
      tokens: Long,
      throughputTokPerSec: Double,
      /** max/mean of summed per-GPU busy time — the straggler measure. */
      gpuImbalance: Double,
      maxMicrobatchFlops: Double,
      minMicrobatchFlops: Double,
  )

  def simulate(plan: StepPlan, bb: ModelConfig, enc: ModelConfig,
               flopsPerSec: Double = 100e12): IterResult = {
    val tree  = plan.tree
    val nBins = plan.nBins
    val shard = (tree.tp * tree.cp * tree.pp).toDouble

    // Backbone FLOPs per (DP bucket, bin), shared by the bucket's replicas.
    val bucketF = plan.backboneCells.map(_.map(_.map(s => FlopsModel.packedSequence(bb, s.segmentLens)).sum))

    // Per (gpu, bin) busy seconds.
    val busy = Array.ofDim[Double](tree.world, nBins)
    val binFlops = Array.ofDim[Double](tree.world, nBins)
    tree.clients.foreach { c =>
      var m = 0
      while (m < nBins) {
        val encF = FlopsModel.images(enc, plan.encoderCells(c.rank)(m).map(_.patches))
        val bbF  = bucketF(c.dp)(m) / shard
        busy(c.rank)(m) = (encF + bbF) / flopsPerSec
        binFlops(c.rank)(m) = encF + bbF * shard
        m += 1
      }
    }

    val perBinMax = (0 until nBins).map(m => (0 until tree.world).map(busy(_)(m)).max)
    val bubble    = 1.0 + (tree.pp - 1).toDouble / nBins
    val iterTime  = perBinMax.sum * bubble

    val perGpu = (0 until tree.world).map(r => (0 until nBins).map(busy(r)(_)).sum)
    val mbF    = for (r <- 0 until tree.world; m <- 0 until nBins) yield binFlops(r)(m)
    val posF   = mbF.filter(_ > 0)

    IterResult(
      iterTimeSec = iterTime,
      tokens = plan.totalTokens,
      throughputTokPerSec = if (iterTime == 0) 0 else plan.totalTokens / iterTime,
      gpuImbalance = Balancer.imbalance(perGpu),
      maxMicrobatchFlops = if (posF.isEmpty) 0 else posF.max,
      minMicrobatchFlops = if (posF.isEmpty) 0 else posF.min,
    )
  }
}
