package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.SampleMeta
import scala.util.Random

/** The one generator of multisource multimodal sample metadata.
  *
  * `sampleMetas` draws each source's samples with `scala.util.Random`,
  * deterministically in (source, seed). The planner and simulator sweeps
  * use the draw directly (e.g. 4096-GPU sweeps that never touch Spark),
  * and `writeGroupParquet` writes the same draw as the per-source Parquet
  * datasets the loader pipelines scan, so both paths plan over identical
  * samples.
  *
  * Sample schema (`schema`): (id BIGINT, source STRING, text_len BIGINT,
  * img_patches BIGINT, payload STRING, payload_bytes BIGINT). `payload` is
  * filler bytes sized like the raw sample so fetch benches move realistic
  * volumes; `payload_bytes` is its stored size, so that a reader that
  * needs only the size never reads the payload. `readSource` declares this
  * schema rather than inferring it, so opening a source runs no Spark job
  * of its own.
  */
object MultiSourceGen {

  /** Hard cap on any single subsequence length (also the largest context). */
  val MaxLen: Long = 128 * 1024

  /** Ids are namespaced per source so a group-wide union stays unique. */
  def idBase(spec: SourceSpec): Long = spec.id.toLong << 40

  /** Adds a filler payload column sized like the raw sample bytes
    * (4 B/text token + 768 B/patch, capped to keep local runs bounded),
    * and its size in bytes as `payload_bytes`.
    */
  def withPayload(df: DataFrame, capBytes: Int = 1 << 20): DataFrame =
    df.withColumn(
      "payload",
      repeat(lit("x"),
             least(lit(capBytes), (col("text_len") * 4 + col("img_patches") * 768).cast("int"))))
      .withColumn("payload_bytes", octet_length(col("payload")).cast(LongType))

  /** Writes one Parquet dataset per source under `dir`/`source-name`, its
    * rows `sampleMetas(spec, n, seed)`. `sf` scales sample counts: SF 0.01
    * ~ a few hundred samples/source. The payload is added after the
    * repartition so that executors build it: added to the local rows,
    * Catalyst folds it into a driver-side `LocalRelation` that every task
    * then carries.
    */
  def writeGroupParquet(spark: SparkSession, group: DatasetGroup, dir: String,
                        sf: Double, baseRowsPerSource: Long = 20000L, seed: Long = 7): Unit =
    group.sources.foreach { spec =>
      val n = math.max(8L, (baseRowsPerSource * sf * spec.relSize).toLong)
      val rows = sampleMetas(spec, n.toInt, seed).map(m => (m.id, m.source, m.textLen, m.imgPatches))
      withPayload(spark.createDataFrame(rows).toDF("id", "source", "text_len", "img_patches").repartition(1))
        .write.mode("overwrite")
        .parquet(s"$dir/${spec.name}")
    }

  /** The columns `writeGroupParquet` writes, as Spark reads them back.
    * Lazy, so that callers of `sampleMetas` alone load no Spark classes.
    */
  lazy val schema: StructType = StructType(Seq(
    StructField("id", LongType), StructField("source", StringType), StructField("text_len", LongType),
    StructField("img_patches", LongType), StructField("payload", StringType),
    StructField("payload_bytes", LongType)))

  /** One source's Parquet dataset, read with the declared `schema`. */
  def readSource(spark: SparkSession, dir: String, spec: SourceSpec): DataFrame =
    spark.read.schema(schema).parquet(s"$dir/${spec.name}")

  /** Draws `n` sample metadata rows from `spec`'s distributions: a uniform
    * text body with a Pareto tail (inverse CDF, capped at `MaxLen`) and
    * log-normal patch counts in [1, `MaxLen`].
    */
  def sampleMetas(spec: SourceSpec, n: Int, seed: Long = 7): Vector[SampleMeta] = {
    val rnd = new Random(seed + spec.id * 131L)
    Vector.tabulate(n) { i =>
      val text =
        if (rnd.nextDouble() < spec.textTailProb)
          math.min(MaxLen,
            (spec.textTailXm * math.pow(1.0 - rnd.nextDouble(), -1.0 / spec.textTailAlpha)).toLong)
        else 4L + rnd.nextInt(math.max(1, spec.textBodyMax - 3))
      val patches = math.min(MaxLen, math.max(1L,
        math.exp(rnd.nextGaussian() * spec.patchLogSigma + spec.patchLogMean).toLong))
      SampleMeta(idBase(spec) + i, spec.name, text, patches)
    }
  }

  /** Draws a mixed buffer across a group, `perSource` samples each. */
  def groupMetas(group: DatasetGroup, perSource: Int, seed: Long = 7): Vector[SampleMeta] =
    group.sources.flatMap(sampleMetas(_, perSource, seed)).toVector
}
