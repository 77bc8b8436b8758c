package repro.loader

import org.apache.spark.JobCount
import repro.{Oracle, SparkSpec, SparkTestData}

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
    val metas = loader.bufferMetadata(spark, limit = 8)
    val rows = loader.scan(spark).orderBy("id").limit(8)
      .select("id", "text_len", "img_patches").collect()
    metas.zip(rows).foreach { case (m, r) =>
      assert(m.id == r.getLong(0) && m.textLen == r.getLong(1) && m.imgPatches == r.getLong(2))
    }
  }

  test("bufferMetadata runs one Spark job, and building a loader's DataFrames none") {
    val l = loader
    val (metas, jobs) = JobCount.of(spark.sparkContext)(l.bufferMetadata(spark, limit = 16))
    assert(metas.size == 16)
    assert(jobs == 1)
    assert(JobCount.of(spark.sparkContext)(l.transformed(spark))._2 == 0)
  }
}
