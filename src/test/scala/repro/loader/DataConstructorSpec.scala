package repro.loader

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.SparkEvents
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.SparkPlanInfo
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import org.scalacheck.{Gen, Prop}
import repro.{Oracle, PropHelper, SparkSpec, SparkTestData}
import repro.core.{ClientPlaceTree, Planner}
import repro.costmodel.ModelConfigs
import repro.data.SourceCatalog
import repro.exp.Workload

class DataConstructorSpec extends SparkSpec {
  val tree  = ClientPlaceTree(pp = 2, dp = 2, cp = 2, tp = 2)
  val ctx   = 8192L
  val nBins = 2

  lazy val loaders = {
    SparkTestData.ensure(spark)
    SparkTestData.group.sources.map(SourceLoader(_, SparkTestData.dir))
  }
  lazy val buffer = loaders.flatMap(_.bufferMetadata(spark, limit = 16)).toVector
  lazy val plan   = Planner.backboneBalance(buffer, tree, ctx, nBins, ModelConfigs.Llama12B)
  lazy val rows   = Planner.planRows(plan)
  lazy val outs   = loaders.map(_.transformed(spark))
  lazy val collated = DataConstructor.collate(spark, outs, rows, ctx).cache()

  test("collate materializes exactly the planned sequences") {
    val planned = plan.allSeqs.size
    assert(collated.count() == planned)
  }

  test("every planned sample reaches exactly one packed sequence") {
    assert(collated.agg(sum("n_segments")).collect()(0).getLong(0) == buffer.size)
  }

  test("per-sequence token sums match the planner's packed sequences") {
    val got = collated.select("bucket", "bin", "seqId", "tokens").collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getLong(2)) -> r.getLong(3)).toMap
    for {
      (bucket, b) <- plan.backboneCells.zipWithIndex
      (bin, m)    <- bucket.zipWithIndex
      seq         <- bin
    } assert(got((b, m, seq.seqId)) == seq.tokens,
             s"tokens mismatch at ($b,$m,${seq.seqId})")
  }

  test("seg_lens follow pack order when the buffer is not in id order") {
    val p = Planner.backboneBalance(new scala.util.Random(5).shuffle(buffer), tree, ctx, nBins,
                                    ModelConfigs.Llama12B)
    val got = DataConstructor.collate(spark, outs, Planner.planRows(p), ctx)
      .select("seqId", "seg_lens").collect().map(r => r.getLong(0) -> r.getSeq[Long](1)).toMap
    val seqs = p.allSeqs
    assert(seqs.exists(s => s.segments.map(_.id) != s.segments.map(_.id).sorted))
    seqs.foreach(s => assert(got(s.seqId) == s.segmentLens, s"seq ${s.seqId}"))
  }

  /** Whether a SQL execution's plan holds a file scan (whose plan info
    * carries its file location).
    */
  private def scansFiles(p: SparkPlanInfo): Boolean =
    p.metadata.contains("Location") || p.children.exists(scansFiles)

  test("only the planned samples cross the one exchange to the constructor") {
    val r = Planner.planRows(Planner.backboneBalance(buffer.take(40), tree, ctx, nBins, ModelConfigs.Llama12B))
    // The first collate over these outputs plans their scans; the step
    // measured below is a later one.
    DataConstructor.collate(spark, outs, r, ctx)
    val jobs, scanRuns = new AtomicInteger
    val shuffled = new AtomicLong
    SparkEvents.listening(spark.sparkContext, new SparkListener {
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case x: SparkListenerSQLExecutionStart if scansFiles(x.sparkPlanInfo) => scanRuns.incrementAndGet()
        case _ =>
      }
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => shuffled.addAndGet(m.shuffleWriteMetrics.recordsWritten))
    })(DataConstructor.deliver(spark, DataConstructor.collate(spark, outs, r, ctx), tree, Set("TP")).collect())
    assert(jobs.get == 1)
    assert(scanRuns.get == 0)
    assert(shuffled.get == r.size)
  }

  test("collate and deliver never read payload") {
    // A payload that fails when read: a query that needs it cannot finish.
    val unread = udf((_: String) => (throw new IllegalStateException("payload was read")): String)
    val unreadable = outs.map(_.withColumn("payload", unread(col("payload"))))
    val c = DataConstructor.collate(spark, unreadable, rows, ctx)
    assert(DataConstructor.deliver(spark, c, tree, Set("TP")).agg(sum("delivered_bytes")).collect()(0).getLong(0) > 0)
  }

  test("an empty plan collates to zero rows") {
    assert(DataConstructor.collate(spark, outs, Seq.empty, ctx).count() == 0)
  }

  test("collate keeps the column names and types that deliver and the step benchmark read") {
    assert(collated.schema.map(f => f.name -> f.dataType) == Seq(
      "bucket" -> IntegerType, "bin" -> IntegerType, "seqId" -> LongType, "n_segments" -> LongType,
      "seg_lens" -> ArrayType(LongType, containsNull = false), "tokens" -> LongType,
      "payload_bytes" -> LongType, "padding" -> LongType))
  }

  test("padding completes every sequence to the context length") {
    val bad = collated.filter(col("padding") =!= lit(ctx) - col("tokens"))
    assert(bad.count() == 0)
    assert(collated.filter(col("padding") < 0).count() == 0)
  }

  test("seg_lens arrays carry one entry per segment") {
    val bad = collated.filter(size(col("seg_lens")) =!= col("n_segments"))
    assert(bad.count() == 0)
  }

  test("oracle: per-bucket token totals agree with DuckDB over plan join data") {
    import spark.implicits._
    // Only the planned rows go to DuckDB, which keeps the payloads it loads small.
    val ids = rows.map(_.sampleId)
    val data = outs.map(_.select("id", "seq_len", "payload").filter(col("id").isInCollection(ids)))
      .reduce(_ unionByName _)
    val agg = collated.groupBy("bucket").agg(sum("tokens") as "toks", sum("payload_bytes") as "bytes")
    Oracle.assertEquivalent(
      agg.select(col("bucket").cast("long") as "bucket", col("toks"), col("bytes")),
      s"SELECT CAST(p.bucket AS BIGINT) AS bucket, " +
        s"sum(LEAST(CAST(d.seq_len AS BIGINT), $ctx)) AS toks, sum(length(d.payload)) AS bytes " +
        "FROM plan p JOIN data d ON CAST(p.sampleId AS BIGINT) = CAST(d.id AS BIGINT) " +
        "GROUP BY CAST(p.bucket AS BIGINT)",
      "plan" -> rows.toDF().select("sampleId", "bucket"), "data" -> data)
  }

  test("deliver fans sequences out to each bucket's clients") {
    val d = DataConstructor.deliver(spark, collated, tree, broadcastDims = Set.empty)
    // Every sequence reaches all pp*cp*tp clients of its DP bucket.
    assert(d.count() == collated.count() * tree.pp * tree.cp * tree.tp)
  }

  test("deliver with broadcast_at(TP) halves the fetching clients") {
    val d = DataConstructor.deliver(spark, collated, tree, broadcastDims = Set("TP"))
    assert(d.count() == collated.count() * tree.pp * tree.cp)
    assert(d.filter(col("rank") % 2 =!= 0).count() == 0) // tp=1 ranks excluded
  }

  test("pipeline stages past the first receive metadata only") {
    val d = DataConstructor.deliver(spark, collated, tree, broadcastDims = Set.empty)
    assert(d.filter(col("metadata_only") && col("delivered_bytes") =!= 0).count() == 0)
    assert(d.filter(!col("metadata_only") && col("delivered_bytes") === 0).count() == 0)
  }

  test("delivered payload bytes shrink under metadata stripping") {
    val d = DataConstructor.deliver(spark, collated, tree, broadcastDims = Set.empty)
    val full = d.agg(sum("payload_bytes")).collect()(0).getLong(0)
    val sent = d.agg(sum("delivered_bytes")).collect()(0).getLong(0)
    assert(sent < full)
  }

  test("property: deliver sends each row to exactly its bucket's fetching clients") {
    import spark.implicits._
    // Mostly small meshes, and one in four up to world 4096.
    val meshes = for {
      pp <- Gen.choose(1, 3); cp <- Gen.choose(1, 3); tp <- Gen.choose(1, 3)
      dp <- Gen.frequency(3 -> Gen.choose(1, 3), 1 -> Gen.choose(1, 4096 / (pp * cp * tp)))
      dims <- Gen.someOf("TP", "CP", "DP")
    } yield (ClientPlaceTree(pp, dp, cp, tp), dims.toSet)
    PropHelper.check(Prop.forAll(meshes) { case (t, dims) =>
      // Two sequences per bucket; deliver reads only bucket and payload_bytes.
      val seqs = (0 until t.dp).flatMap(b => Seq((b, 2L * b, 100L + b), (b, 2L * b + 1, 0L)))
      val got = DataConstructor.deliver(spark, seqs.toDF("bucket", "seqId", "payload_bytes"), t, dims)
        .select("seqId", "rank", "pp", "metadata_only", "delivered_bytes").collect()
        .groupBy(_.getLong(0))
      val buckets = t.bucketClients("DP")
      seqs.forall { case (b, seqId, bytes) =>
        val want = t.broadcastFilter(buckets(b), dims).map(c => (c.rank, c.pp, c.pp > 0))
        val rs = got.getOrElse(seqId, Array.empty)
        rs.map(r => (r.getInt(1), r.getInt(2), r.getBoolean(3))).sorted.toSeq == want.sorted &&
          rs.forall(r => r.getLong(4) == (if (r.getBoolean(3)) 0L else bytes))
      }
    }, cases = 30)
  }

  test("deliver's query is the same size at dp 2 and dp 2048") {
    import spark.implicits._
    val seqs = Seq((0, 0L, 100L), (1, 1L, 0L)).toDF("bucket", "seqId", "payload_bytes")
    def size(dp: Int): (Int, Int) = {
      val q = DataConstructor.deliver(spark, seqs, ClientPlaceTree(pp = 2, dp = dp, cp = 1, tp = 2), Set("TP"))
        .queryExecution.analyzed
      (q.collect { case n => n }.size, q.collect { case n => n.expressions.map(_.collect { case e => e }.size).sum }.sum)
    }
    assert(size(2) == size(2048))
  }

  test("at dp 2048, tp 2, pp 2 each planned sequence reaches exactly its consumers, in pack order") {
    import spark.implicits._
    val big = ClientPlaceTree(pp = 2, dp = 2048, cp = 1, tp = 2)
    val buf = Workload.stepBuffer(SourceCatalog.coyo700m, big.dp, nBins, ctx, step = 0, samplesPerRank = 8)
    def payload(id: Long): Long = 3 * id % 1000
    // One in-memory output per source, standing in for its loader's scan.
    val outputs = buf.groupBy(_.source).values.toSeq.map(ms =>
      ms.map(m => (m.id, m.seqLen, payload(m.id))).toDF("id", "seq_len", "payload_bytes"))
    val p = Planner.backboneBalance(buf, big, ctx, nBins, ModelConfigs.Llama12B)
    val got = DataConstructor.deliver(spark, DataConstructor.collate(spark, outputs, Planner.planRows(p), ctx),
                                      big, Set("TP"))
      .select("bucket", "bin", "seqId", "seg_lens", "tokens", "rank", "pp", "delivered_bytes").collect()
      .groupBy(_.getLong(2))
    val consumers = big.bucketClients("DP").map(cs => big.broadcastFilter(cs, Set("TP")).map(_.rank))
    for ((bucket, b) <- p.backboneCells.zipWithIndex; (bin, m) <- bucket.zipWithIndex; seq <- bin) {
      val rs = got(seq.seqId)
      assert(rs.map(_.getInt(5)).sorted.toSeq == consumers(b), s"consumers of seq ${seq.seqId}")
      assert(rs.forall(r => r.getInt(0) == b && r.getInt(1) == m && r.getSeq[Long](3) == seq.segmentLens &&
                            r.getLong(4) == seq.tokens), s"seq ${seq.seqId}")
      val bytes = seq.segments.map(s => payload(s.id)).sum
      assert(rs.forall(r => r.getLong(7) == (if (r.getInt(6) > 0) 0L else bytes)), s"bytes of seq ${seq.seqId}")
    }
    assert(got.size == p.allSeqs.size)
    assert(got.values.map(_.head.getLong(4)).sum == p.totalTokens)
  }
}
