package repro.exp

import repro.core.SampleMeta
import repro.data.{DatasetGroup, MultiSourceGen}
import scala.util.Random

/** Step-buffer construction for the driver-side experiments: draws a
  * mixed multisource buffer of a fixed number of samples per DP rank, the
  * way Source Loader buffers feed the Planner each step.
  */
object Workload {

  /** `perSource` samples of every source in `group`, drawn afresh for
    * each call and interleaved by a seeded shuffle so arrival order mixes
    * sources like a real stream.
    */
  def pool(group: DatasetGroup, perSource: Int, seed: Long): Vector[SampleMeta] = {
    val rnd = new Random(seed)
    rnd.shuffle(MultiSourceGen.groupMetas(group, perSource, seed))
  }

  /** One step's buffer: `dp` x `samplesPerRank` samples (32 per rank by
    * default). The trainer sets batch size in samples, so token totals vary
    * with the draw, exactly the Sec. 2.3 imbalance source; the buffer is
    * not sized to fill `nBins` microbatches of `ctx` tokens, and neither
    * parameter is read. Distinct steps reseed the pool so iterations see
    * different data.
    */
  def stepBuffer(group: DatasetGroup, dp: Int, nBins: Int, ctx: Long,
                 step: Int, seed: Long = 11, samplesPerRank: Int = 32): Vector[SampleMeta] = {
    val n   = dp * samplesPerRank
    val per = math.max(8, n / group.sources.size + 8)
    pool(group, per, seed + step).take(n)
  }
}
