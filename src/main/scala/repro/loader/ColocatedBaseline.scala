package repro.loader

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.FileSourceScanExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.functions._
import repro.core.PlanRow
import repro.data.{DatasetGroup, MultiSourceGen}

/** Outcome of one fetch experiment over the Spark data path.
  *
  * @param wallMs       end-to-end wall time of all actions
  * @param rowsDelivered rows that reached consumers
  * @param rowsScanned  source rows the architecture's Parquet scans read
  *                     to deliver them, from Spark's scan metrics (the
  *                     read-amplification measure)
  */
final case class FetchStats(wallMs: Long, rowsDelivered: Long, rowsScanned: Long)

/** The colocated-dataloader baseline (Sec. 2.2): every data-parallel rank
  * runs its own loader over the *full* source set and keeps only its
  * shard. On Spark this means each rank issues its own scan of every
  * source, whereas the disaggregated path scans each source exactly once
  * and shuffles by plan bucket.
  */
object ColocatedBaseline {

  private val plans = new AdaptiveSparkPlanHelper {}

  /** Rows the Parquet scans of `df`'s executed plan read: the sum of each
    * `FileSourceScanExec`'s `numOutputRows`, walking into AQE stages.
    * Valid once an action over `df` has run.
    */
  private def rowsRead(df: DataFrame): Long =
    plans.collect(df.queryExecution.executedPlan) {
      case s: FileSourceScanExec => s.metrics("numOutputRows").value
    }.sum

  /** Each of `nRanks` ranks scans all sources, filters to its hash shard,
    * and materializes its batch. Returns aggregate stats; wall time covers
    * all per-rank jobs (they run serially, as independent per-rank loader
    * processes would contend for the same hosts).
    */
  def fetch(spark: SparkSession, group: DatasetGroup, dir: String, nRanks: Int): FetchStats = {
    val all = group.sources
      .map(s => MultiSourceGen.readSource(spark, dir, s).select(col("id"), length(col("payload")) as "pbytes"))
      .reduce(_ unionByName _)
    val t0 = System.nanoTime()
    var delivered, scanned = 0L
    (0 until nRanks).foreach { r =>
      val shard = all.filter(pmod(hash(col("id")), lit(nRanks)) === r)
        .agg(count(lit(1)) as "n", sum("pbytes") as "b")
      delivered += shard.collect()(0).getLong(0)
      scanned += rowsRead(shard)
    }
    FetchStats((System.nanoTime() - t0) / 1000000L, delivered, scanned)
  }

  /** Disaggregated fetch: one scan per source, one shuffle to rank
    * buckets driven by the plan.
    */
  def fetchDisaggregated(spark: SparkSession, loaderOutputs: Seq[DataFrame], rows: Seq[PlanRow],
                         ctx: Long): FetchStats = {
    val t0 = System.nanoTime()
    val job = DataConstructor.collate(spark, loaderOutputs, rows, ctx).agg(sum("n_segments"))
    val delivered = job.collect()(0).getLong(0)
    FetchStats((System.nanoTime() - t0) / 1000000L, delivered, rowsRead(job))
  }
}
