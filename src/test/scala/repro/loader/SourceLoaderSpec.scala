package repro.loader

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}
import org.apache.spark.SparkEvents
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import repro.{Oracle, SparkSpec, SparkTestData}
import repro.core.SampleMeta

class SourceLoaderSpec extends SparkSpec {
  lazy val spec   = SparkTestData.group.sources.head
  lazy val loader = { SparkTestData.ensure(spark); SourceLoader(spec, SparkTestData.dir) }

  test("scan reads only this loader's source") {
    val df = loader.scan(spark)
    assert(df.select("source").distinct().collect().map(_.getString(0)).toSeq == Seq(spec.name))
  }

  test("transformed adds the sample-transformation columns") {
    val df = loader.transformed(spark)
    assert(df.columns.contains("seq_len"))
  }

  test("oracle: seq_len is text + patches for every row") {
    val df = loader.transformed(spark).select("id", "text_len", "img_patches", "seq_len")
    Oracle.assertEquivalent(df,
      "SELECT id, text_len, img_patches, " +
        "CAST(text_len AS BIGINT) + CAST(img_patches AS BIGINT) AS seq_len FROM t",
      "t" -> df.drop("seq_len"))
  }

  test("bufferMetadata returns at most `limit` samples in id order") {
    val metas = loader.bufferMetadata(spark, limit = 16)
    assert(metas.size == 16)
    assert(metas.map(_.id) == metas.map(_.id).sorted)
    assert(metas.forall(_.source == spec.name))
  }

  test("bufferMetadata matches the scanned rows") {
    val n = loader.scan(spark).count().toInt
    for (limit <- Seq(0, 1, 8, n, n + 5)) {
      val rows = loader.scan(spark).orderBy("id").limit(limit)
        .select("id", "source", "text_len", "img_patches").collect()
        .map(r => SampleMeta(r.getLong(0), r.getString(1), r.getLong(2), r.getLong(3))).toVector
      assert(rows.size == math.min(limit, n))
      assert(loader.bufferMetadata(spark, limit) == rows, s"limit $limit")
    }
  }

  test("bufferMetadata runs one Spark job, and building a loader's DataFrames none") {
    val l = loader
    val (metas, jobs) = jobsOf(l.bufferMetadata(spark, limit = 16))
    assert(metas.size == 16)
    assert(jobs == 1)
    assert(jobsOf(l.transformed(spark))._2 == 0)
  }

  test("a second bufferMetadata call plans nothing and reads the whole source again") {
    val l = loader
    l.bufferMetadata(spark, limit = 16)
    val sqlRuns, jobs = new AtomicInteger
    val rowsRead = new AtomicLong
    val metas = SparkEvents.listening(spark.sparkContext, new SparkListener {
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case _: SparkListenerSQLExecutionStart => sqlRuns.incrementAndGet()
        case _                                 =>
      }
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => rowsRead.addAndGet(m.inputMetrics.recordsRead))
    })(l.bufferMetadata(spark, limit = 16))
    assert(metas.size == 16)
    assert(sqlRuns.get == 0)
    assert(jobs.get == 1)
    assert(rowsRead.get == l.scan(spark).count())
  }
}
