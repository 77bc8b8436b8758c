package repro.loader

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.SampleMeta
import repro.data.{MultiSourceGen, SourceSpec}

/** A Source Loader (Sec. 3): dedicated to exactly one source, it owns that
  * source's file access state and applies sample transformations. In this
  * reproduction the loader is one Parquet scan of its own source directory
  * plus per-sample transformation columns — so each source's reader state
  * exists exactly once in the job, which is the architectural property the
  * paper's disaggregation buys.
  *
  * The scan declares the source schema `MultiSourceGen.schema` (id BIGINT,
  * source STRING, text_len BIGINT, img_patches BIGINT, payload STRING,
  * payload_bytes BIGINT), so building a loader's DataFrames runs no Spark
  * job. The loader opens its metadata scan once per `SparkSession`, at the
  * first `bufferMetadata` call: the query is analysed, planned and its
  * files listed then, and every later call is one Spark job over that
  * planned scan, which reads the source again (nothing is cached). A
  * source rewritten later in the same session is therefore not seen. The
  * Data Constructor plans its own scan of `transformed` once in the same
  * way, and each step's plan is broadcast to that scan's tasks, which pass
  * on only the planned samples and never read `payload`.
  */
final case class SourceLoader(spec: SourceSpec, dir: String) {

  /** The metadata scan and the session it was planned in. */
  private var opened: Option[(SparkSession, RDD[SampleMeta])] = None

  /** Raw scan of this loader's single source. */
  def scan(spark: SparkSession): DataFrame = MultiSourceGen.readSource(spark, dir, spec)

  /** Sample transformation stage: a tokenization surrogate that derives
    * the trainable sequence length from the raw columns.
    */
  def transformed(spark: SparkSession): DataFrame =
    scan(spark).withColumn("seq_len", col("text_len") + col("img_patches"))

  /** This source's metadata rows, planned once per session; runs no job. */
  private def metadata(spark: SparkSession): RDD[SampleMeta] = synchronized {
    opened.collect { case (s, rdd) if s eq spark => rdd }.getOrElse {
      val rdd = scan(spark).select("id", "source", "text_len", "img_patches").rdd
        .map(r => SampleMeta(r.getLong(0), r.getString(1), r.getLong(2), r.getLong(3)))
      opened = Some((spark, rdd))
      rdd
    }
  }

  /** Buffer metadata the Planner plans over (Sec. 3 workflow step 4):
    * sample indices, source signature, and sequence lengths — never
    * payloads. `limit` bounds the read buffer: the `limit` lowest ids, in
    * id order.
    */
  def bufferMetadata(spark: SparkSession, limit: Int): Vector[SampleMeta] =
    metadata(spark).takeOrdered(limit)(Ordering.by(_.id)).toVector
}
