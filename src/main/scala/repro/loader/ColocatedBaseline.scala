package repro.loader

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.SparkEvents
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.PlanRow
import repro.data.{DatasetGroup, MultiSourceGen}

/** Outcome of one fetch experiment over the Spark data path.
  *
  * @param wallMs       end-to-end wall time of all actions
  * @param rowsDelivered rows that reached consumers
  * @param rowsScanned  source rows the architecture's scans read to
  *                     deliver them, from Spark's task input metrics (the
  *                     read-amplification measure)
  */
final case class FetchStats(wallMs: Long, rowsDelivered: Long, rowsScanned: Long)

/** The colocated-dataloader baseline (Sec. 2.2): every data-parallel rank
  * runs its own loader over the *full* source set and keeps only its
  * shard. On Spark this means each rank issues its own scan of every
  * source, whereas the disaggregated path scans each source exactly once
  * and shuffles by plan bucket. Both paths read the stored payload size,
  * not the payload, and count the rows they read the same way.
  */
object ColocatedBaseline {

  /** Runs `action` and returns its result with the source rows its Spark
    * jobs read: the sum of the tasks' `inputMetrics.recordsRead`.
    */
  private def readingRows[A](spark: SparkSession)(action: => A): (A, Long) = {
    val rows = new AtomicLong
    val a = SparkEvents.listening(spark.sparkContext, new SparkListener {
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => rows.addAndGet(m.inputMetrics.recordsRead))
    })(action)
    (a, rows.get)
  }

  /** Each of `nRanks` ranks scans all sources, filters to its hash shard,
    * and materializes its batch. Returns aggregate stats; wall time covers
    * all per-rank jobs (they run serially, as independent per-rank loader
    * processes would contend for the same hosts).
    */
  def fetch(spark: SparkSession, group: DatasetGroup, dir: String, nRanks: Int): FetchStats = {
    val all = group.sources
      .map(s => MultiSourceGen.readSource(spark, dir, s).select("id", "payload_bytes"))
      .reduce(_ unionByName _)
    val t0 = System.nanoTime()
    var delivered, scanned = 0L
    (0 until nRanks).foreach { r =>
      val shard = all.filter(pmod(hash(col("id")), lit(nRanks)) === r)
        .agg(count(lit(1)) as "n", sum("payload_bytes") as "b")
      val (n, read) = readingRows(spark)(shard.collect()(0).getLong(0))
      delivered += n
      scanned += read
    }
    FetchStats((System.nanoTime() - t0) / 1000000L, delivered, scanned)
  }

  /** Disaggregated fetch: one scan per source, one shuffle to rank
    * buckets driven by the plan.
    */
  def fetchDisaggregated(spark: SparkSession, loaderOutputs: Seq[DataFrame], rows: Seq[PlanRow],
                         ctx: Long): FetchStats = {
    val t0 = System.nanoTime()
    val (delivered, scanned) = readingRows(spark) {
      DataConstructor.collate(spark, loaderOutputs, rows, ctx).agg(sum("n_segments")).collect()(0).getLong(0)
    }
    FetchStats((System.nanoTime() - t0) / 1000000L, delivered, scanned)
  }
}
