package repro.loader

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.core.{ClientPlaceTree, PlanRow}
import scala.jdk.CollectionConverters._

/** The Data Constructor (Sec. 3): aggregates Source Loader outputs per DP
  * bucket and applies the microbatch transformations (packing/padding) and
  * parallelism transformations (PP metadata stripping, broadcast
  * thinning).
  *
  * Dataflow: the plan rows are broadcast to every loader task, which keeps
  * only the planned samples of its source; those rows are shuffled by
  * bucket — the one exchange between loaders and constructor, replacing
  * the N-rank redundant reads of the colocated design — and collated into
  * packed sequences per (bucket, bin, seqId). Delivery fans each sequence
  * out to its bucket's clients from a literal client list, so it adds
  * neither an exchange nor a broadcast.
  */
object DataConstructor {

  /** `PlanRow`'s columns, declared so that building a plan's DataFrame
    * derives no encoder by reflection.
    */
  private lazy val planSchema = StructType(Seq(
    StructField("sampleId", LongType, nullable = false), StructField("source", StringType),
    StructField("bucket", IntegerType, nullable = false), StructField("bin", IntegerType, nullable = false),
    StructField("seqId", LongType, nullable = false), StructField("pos", IntegerType, nullable = false)))

  /** The plan rows as a small DataFrame the join can consume. */
  def planDf(spark: SparkSession, rows: Seq[PlanRow]): DataFrame =
    spark.createDataFrame(rows.map(r => Row(r.sampleId, r.source, r.bucket, r.bin, r.seqId, r.pos)).asJava,
                          planSchema)

  /** Packed, padded per-(bucket, microbatch) sequences.
    *
    * Output columns: bucket, bin, seqId, n_segments, seg_lens (pack-order
    * segment lengths), tokens, padding, payload_bytes.
    */
  def collate(spark: SparkSession, loaderOutputs: Seq[DataFrame], rows: Seq[PlanRow],
              ctx: Long): DataFrame = {
    // Oversize samples are truncated to the context (exactly as the
    // Planner's packing does), so a capped sample fills one sequence.
    val data = loaderOutputs
      .map(_.select(col("id"), least(col("seq_len"), lit(ctx)) as "seq_len",
                    length(col("payload")) as "pbytes"))
      .reduce(_ unionByName _)
    val joined = broadcast(planDf(spark, rows)).join(data, col("sampleId") === col("id"), "inner")
    joined
      .repartition(col("bucket"))
      .groupBy("bucket", "bin", "seqId")
      .agg(
        count(lit(1))                                   as "n_segments",
        // collect_list follows shuffle order, so the segments are put
        // back in pack order by their planned position.
        expr("transform(sort_array(collect_list(struct(pos, seq_len))), x -> x.seq_len)")
                                                        as "seg_lens",
        sum("seq_len")                                  as "tokens",
        sum("pbytes")                                   as "payload_bytes",
      )
      .withColumn("padding", lit(ctx) - col("tokens"))
  }

  /** Delivery view: one row per (sequence row x consuming client), after
    * `broadcast_at` thinning; PP>0 clients are marked metadata-only and
    * carry no payload bytes (Sec. 3 design rationale). Each row explodes
    * the literal client list of its bucket, so delivery runs no join.
    * `spark` is unused.
    */
  def deliver(spark: SparkSession, collated: DataFrame, tree: ClientPlaceTree,
              broadcastDims: Set[String]): DataFrame = {
    val byBucket = tree.bucketClients("DP").map { cs =>
      array(tree.broadcastFilter(cs, broadcastDims).map(c =>
        struct(lit(c.rank) as "rank", lit(c.pp) as "pp", lit(tree.metadataOnly(c)) as "metadata_only")): _*)
    }
    collated
      .select(col("*"), inline(element_at(array(byBucket: _*), col("bucket") + 1))) // 1-based
      .withColumn("delivered_bytes",
                  when(col("metadata_only"), lit(0L)).otherwise(col("payload_bytes")))
  }
}
