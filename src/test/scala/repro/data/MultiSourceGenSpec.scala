package repro.data

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SparkTestData}
import repro.core.{ClientPlaceTree, LinearCurriculum, MixSampler, Planner}
import repro.costmodel.ModelConfigs
import repro.loader.SourceLoader

class MultiSourceGenSpec extends SparkSpec {
  val spec  = SourceCatalog.coyo700m.sources.head
  val spec2 = SourceCatalog.coyo700m.sources(1)

  lazy val loaders = {
    SparkTestData.ensure(spark)
    SparkTestData.group.sources.map(SourceLoader(_, SparkTestData.dir))
  }

  // The Parquet written from sampleMetas is what sourceDf used to produce.
  test("sourceDf yields the requested row count and schema") {
    assert(MultiSourceGen.sampleMetas(spec, 100).size == 100)
    loaders.foreach { l =>
      val df = l.scan(spark)
      assert(df.count() == math.max(8L, (20000L * 0.01 * l.spec.relSize).toLong))
      assert(df.columns.toSeq == Seq("id", "source", "text_len", "img_patches", "payload", "payload_bytes"))
    }
  }

  test("ids are namespaced per source and globally unique in a union") {
    val a = MultiSourceGen.sampleMetas(spec, 50)
    val b = MultiSourceGen.sampleMetas(spec2, 50)
    assert((a ++ b).map(_.id).distinct.size == 100)
    val all = loaders.map(_.scan(spark).select("id")).reduce(_ unionByName _)
    assert(all.distinct().count() == all.count())
  }

  test("generation is deterministic in (source, seed)") {
    assert(MultiSourceGen.sampleMetas(spec, 50) == MultiSourceGen.sampleMetas(spec, 50))
  }

  test("different seeds change the draw") {
    val a = MultiSourceGen.sampleMetas(spec, 50, seed = 1).map(_.textLen).sum
    val b = MultiSourceGen.sampleMetas(spec, 50, seed = 2).map(_.textLen).sum
    assert(a != b)
  }

  test("text lengths respect the body/tail structure") {
    val lens = MultiSourceGen.sampleMetas(spec, 2000).map(_.textLen)
    assert(lens.forall(l => l >= 4 && l <= MultiSourceGen.MaxLen))
    val bodyFrac = lens.count(_ <= spec.textBodyMax).toDouble / lens.size
    assert(bodyFrac > 0.95)
  }

  test("patch counts are positive and capped") {
    val patches = MultiSourceGen.sampleMetas(spec, 1000).map(_.imgPatches)
    assert(patches.forall(p => p >= 1 && p <= MultiSourceGen.MaxLen))
  }

  test("withPayload sizes filler to the raw-byte formula, capped") {
    val rows = MultiSourceGen.sampleMetas(spec, 64).map(m => (m.textLen, m.imgPatches))
    val capped = MultiSourceGen.withPayload(spark.createDataFrame(rows).toDF("text_len", "img_patches"), capBytes = 4096)
    val written = loaders.map(_.scan(spark)).reduce(_ unionByName _)
    Seq(4096 -> capped, (1 << 20) -> written).foreach { case (cap, df) =>
      val bad = df.filter(
        length(col("payload")) =!= least(lit(cap), (col("text_len") * 4 + col("img_patches") * 768).cast("int")))
      assert(bad.count() == 0)
    }
    assert(capped.filter(length(col("payload")) === 4096).count() > 0)
  }

  test("payload_bytes is the stored size of every written payload") {
    loaders.foreach { l =>
      val df = l.scan(spark)
      assert(df.filter(col("payload_bytes").isNull || col("payload_bytes") =!= octet_length(col("payload")))
               .count() == 0, l.spec.name)
    }
  }

  // A declared schema that drifted from the writer would read nulls silently.
  test("readSource declares the schema Spark infers from the written files") {
    loaders.foreach { l =>
      val declared = MultiSourceGen.readSource(spark, SparkTestData.dir, l.spec).schema
      val inferred = spark.read.parquet(s"${SparkTestData.dir}/${l.spec.name}").schema
      assert(declared.map(f => (f.name, f.dataType, f.nullable)) ==
             inferred.map(f => (f.name, f.dataType, f.nullable)))
    }
  }

  test("writeGroupParquet persists one readable dataset per source") {
    SparkTestData.ensure(spark)
    SparkTestData.group.sources.foreach { s =>
      val df = MultiSourceGen.readSource(spark, SparkTestData.dir, s)
      assert(df.count() > 0)
      assert(df.select("source").distinct().collect().map(_.getString(0)).toSeq == Seq(s.name))
    }
  }

  test("oracle: per-source counts and token sums agree with DuckDB") {
    SparkTestData.ensure(spark)
    val all = SparkTestData.group.sources
      .map(MultiSourceGen.readSource(spark, SparkTestData.dir, _).select("id", "source", "text_len"))
      .reduce(_ unionByName _)
    val agg = all.groupBy("source")
      .agg(count(lit(1)) as "n", sum("text_len") as "toks")
    Oracle.assertEquivalent(agg,
      "SELECT source, count(*) AS n, sum(CAST(text_len AS BIGINT)) AS toks FROM samples GROUP BY source",
      "samples" -> all)
  }

  test("the Spark loaders read exactly the samples sampleMetas draws") {
    loaders.foreach { l =>
      val n = l.scan(spark).count().toInt
      assert(l.bufferMetadata(spark, n) == MultiSourceGen.sampleMetas(l.spec, n, seed = 7))
    }
  }

  test("the Spark buffers and the driver draw plan the same rows") {
    val tree  = ClientPlaceTree(pp = 1, dp = 2, cp = 2, tp = 2)
    val names = SparkTestData.group.sources.map(_.name)
    val schedule = LinearCurriculum(names.map(_ -> 1.0).toMap, Map(names.head -> 1.0), steps = 10)
    val sparkBuf  = loaders.flatMap(_.bufferMetadata(spark, limit = 24)).toVector
    val driverBuf = SparkTestData.group.sources.flatMap(MultiSourceGen.sampleMetas(_, 24, seed = 7)).toVector
    val plans = Seq(sparkBuf, driverBuf).map { buf =>
      val (drawn, _) = MixSampler.draw(buf, schedule, step = 3, batch = 60)
      Planner.planRows(Planner.hybridBalance(drawn, tree, 8192L, 2, ModelConfigs.Llama12B, ModelConfigs.ViT1B))
    }
    assert(plans.head.size == 60)
    assert(plans.head == plans(1))
  }

  test("groupMetas spans every source in the group") {
    val metas = MultiSourceGen.groupMetas(SourceCatalog.coyo700m, perSource = 3)
    assert(metas.size == 15)
    assert(metas.map(_.source).distinct.size == 5)
  }
}
