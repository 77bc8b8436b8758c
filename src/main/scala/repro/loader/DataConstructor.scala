package repro.loader

import java.util.{Collections, WeakHashMap}
import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core.{ClientPlaceTree, PlanRow}

/** The Data Constructor (Sec. 3): aggregates Source Loader outputs per DP
  * bucket and applies the microbatch transformations (packing/padding) and
  * parallelism transformations (PP metadata stripping, broadcast
  * thinning).
  *
  * Dataflow: the constructor keeps each loader output's planned
  * `(id, seq_len, payload_bytes)` scan, planned once per DataFrame, like a
  * long-lived constructor connected to long-lived loaders. Each step
  * broadcasts the plan (sample id -> bucket, bin, sequence, position) to
  * the loader tasks, which pass on only the planned samples, and hashes
  * them by bucket — the one exchange between loaders and constructor,
  * replacing the N-rank redundant reads of the colocated design. The
  * constructor side collates them into packed sequences per (bucket, bin,
  * seqId). A step is one Spark job, and the step path neither plans a SQL
  * query over the sources nor reads `payload`. Delivery fans each sequence
  * out to its bucket's clients on the same RDD, so it adds neither an
  * exchange nor a broadcast.
  */
object DataConstructor {

  /** One planned sample on its way to its bucket: its sequence and
    * position there, its length capped at the context, and its payload
    * size. Flat, so that it crosses the exchange as one small object.
    */
  private final case class Segment(bin: Int, seqId: Long, pos: Int, len: Long, bytes: Long)

  /** The planned `(id, seq_len, payload_bytes)` scan of each loader output.
    * `Dataset` does not override `equals`, so the keys are compared by
    * identity, and a DataFrame no longer referenced drops its scan.
    */
  private val scans = Collections.synchronizedMap(new WeakHashMap[DataFrame, RDD[(Long, Long, Long)]])

  private def scanned(df: DataFrame): RDD[(Long, Long, Long)] =
    scans.computeIfAbsent(df, _ =>
      df.select("id", "seq_len", "payload_bytes").rdd.map(r => (r.getLong(0), r.getLong(1), r.getLong(2))))

  /** `collate`'s output columns. */
  private lazy val schema = StructType(Seq(
    StructField("bucket", IntegerType, nullable = false), StructField("bin", IntegerType, nullable = false),
    StructField("seqId", LongType, nullable = false), StructField("n_segments", LongType, nullable = false),
    StructField("seg_lens", ArrayType(LongType, containsNull = false), nullable = false),
    StructField("tokens", LongType, nullable = false), StructField("payload_bytes", LongType, nullable = false),
    StructField("padding", LongType, nullable = false)))

  /** Packed, padded per-(bucket, microbatch) sequences.
    *
    * Output columns: bucket, bin, seqId, n_segments, seg_lens (pack-order
    * segment lengths), tokens, padding, payload_bytes.
    */
  def collate(spark: SparkSession, loaderOutputs: Seq[DataFrame], rows: Seq[PlanRow],
              ctx: Long): DataFrame = {
    val sc = spark.sparkContext
    val plan = sc.broadcast(rows.iterator.map(r => r.sampleId -> (r.bucket, r.bin, r.seqId, r.pos)).toMap)
    // At most one task per core on each side of the exchange: a step moves
    // a few hundred rows, and a task costs more to schedule than to run.
    val cores = sc.defaultParallelism
    val buckets = if (rows.isEmpty) 1 else rows.iterator.map(_.bucket).max + 1
    val planned = sc.union(loaderOutputs.map(scanned)).coalesce(cores).mapPartitions { it =>
      val p = plan.value
      it.flatMap { case (id, len, bytes) =>
        // Oversize samples are truncated to the context (exactly as the
        // Planner's packing does), so a capped sample fills one sequence.
        p.get(id).map { case (bucket, bin, seqId, pos) => bucket -> Segment(bin, seqId, pos, math.min(len, ctx), bytes) }
      }
    }
    val collated = planned.partitionBy(new HashPartitioner(math.min(buckets, cores))).mapPartitions { it =>
      it.toVector.groupBy { case (bucket, s) => (bucket, s.bin, s.seqId) }.iterator.map {
        case ((bucket, bin, seqId), segs) =>
          // Segments arrive in shuffle order; their planned position puts
          // them back in pack order.
          val ordered = segs.map(_._2).sortBy(_.pos)
          val lens = ordered.map(_.len)
          Row(bucket, bin, seqId, lens.size.toLong, lens, lens.sum, ordered.map(_.bytes).sum, ctx - lens.sum)
      }
    }
    spark.createDataFrame(collated, schema)
  }

  /** Delivery view: one row per (sequence row x consuming client), after
    * `broadcast_at` thinning; PP>0 clients are marked metadata-only and
    * carry no payload bytes (Sec. 3 design rationale). Output: `collated`'s
    * columns (of which only `bucket` and `payload_bytes` are read) plus
    * rank, pp, metadata_only and delivered_bytes. Rows fan out through a
    * bucket -> clients table built on the driver, so the query does not
    * grow with the mesh.
    */
  def deliver(spark: SparkSession, collated: DataFrame, tree: ClientPlaceTree,
              broadcastDims: Set[String]): DataFrame = {
    val consumers = tree.bucketClients("DP").map { cs =>
      tree.broadcastFilter(cs, broadcastDims).map(c => (c.rank, c.pp, tree.metadataOnly(c)))
    }
    val fanned = collated.rdd.flatMap { r =>
      consumers(r.getAs[Int]("bucket")).map { case (rank, pp, metaOnly) =>
        Row.fromSeq(r.toSeq ++ Seq(rank, pp, metaOnly, if (metaOnly) 0L else r.getAs[Long]("payload_bytes")))
      }
    }
    spark.createDataFrame(fanned, collated.schema
      .add("rank", IntegerType, nullable = false).add("pp", IntegerType, nullable = false)
      .add("metadata_only", BooleanType, nullable = false).add("delivered_bytes", LongType, nullable = false))
  }
}
