package repro

import org.apache.spark.sql.functions._
import repro.loader.SourceLoader

/** Oracle plumbing checks over the coyo Parquet fixture: the DuckDB
  * cross-check must agree with Spark on straightforward SQL and must
  * catch a deliberately wrong result.
  */
class OracleSpec extends SparkSpec {
  lazy val rows = {
    SparkTestData.ensure(spark)
    SparkTestData.group.sources.map(SourceLoader(_, SparkTestData.dir).scan(spark))
      .reduce(_ unionByName _).select("id", "source", "text_len", "img_patches").cache()
  }

  test("aggregate equivalence on the coyo source rows") {
    val df = rows.groupBy("source")
      .agg(count(lit(1)) as "cnt", sum("text_len") as "text", max("img_patches") as "patches")
    Oracle.assertEquivalent(df,
      "SELECT source, count(*) AS cnt, sum(CAST(text_len AS BIGINT)) AS text, " +
        "max(CAST(img_patches AS BIGINT)) AS patches FROM samples GROUP BY source",
      "samples" -> rows)
  }

  test("a wrong Spark result is rejected") {
    val df = rows.groupBy("source").agg((count(lit(1)) + 1) as "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df,
        "SELECT source, count(*) AS cnt FROM samples GROUP BY source",
        "samples" -> rows)
    }
  }

  test("a column-name mismatch is rejected with guidance") {
    val df = rows.groupBy("source").agg(count(lit(1)) as "wrong_name")
    val e = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df,
        "SELECT source, count(*) AS cnt FROM samples GROUP BY source",
        "samples" -> rows)
    }
    assert(e.getMessage.contains("alias"))
  }
}
