package repro

import org.apache.spark.sql.functions._
import repro.core._
import repro.costmodel.ModelConfigs
import repro.data.Packing
import repro.loader.{DataConstructor, SourceLoader}
import repro.sim.TrainSim

/** End-to-end integration of the whole OVERLORD workflow (Sec. 3 Fig. 7):
  * Source Loaders buffer metadata -> Planner mixes per a curriculum
  * schedule -> balance produces the plan grid -> Data Constructors
  * collate on Spark -> delivery respects hybrid parallelism -> the
  * training-step simulator consumes the plan.
  */
class IntegrationSpec extends SparkSpec {
  val tree  = ClientPlaceTree(pp = 1, dp = 2, cp = 2, tp = 2)
  val ctx   = 8192L
  val nBins = 2

  lazy val loaders = {
    SparkTestData.ensure(spark)
    SparkTestData.group.sources.map(SourceLoader(_, SparkTestData.dir))
  }
  lazy val buffer = loaders.flatMap(_.bufferMetadata(spark, limit = 24)).toVector

  val schedule = LinearCurriculum(
    from = SparkTestData.group.sources.map(_.name -> 1.0).toMap,
    to   = Map(SparkTestData.group.sources.head.name -> 1.0),
    steps = 10)

  test("mix -> plan -> collate -> deliver round-trips every sampled token") {
    val (sampled, _) = MixSampler.draw(buffer, schedule, step = 0, batch = 60)
    assert(sampled.size == 60)

    val plan  = Planner.hybridBalance(sampled, tree, ctx, nBins,
      ModelConfigs.Llama12B, ModelConfigs.ViT1B)
    val rows  = Planner.planRows(plan)
    val coll  = DataConstructor.collate(spark, loaders.map(_.transformed(spark)), rows, ctx)
    val total = coll.agg(sum("tokens")).collect()(0).getLong(0)
    assert(total == plan.totalTokens)

    val delivered = DataConstructor.deliver(spark, coll, tree, Set("TP"))
    // Each bucket feeds its cp x pp clients after TP thinning.
    assert(delivered.count() == coll.count() * tree.cp * tree.pp)
  }

  test("curriculum mixing shifts the sampled source distribution over steps") {
    val (early, _) = MixSampler.draw(buffer, schedule, step = 0, batch = 60)
    val (late, _)  = MixSampler.draw(buffer, schedule, step = 10, batch = 24)
    val hot = SparkTestData.group.sources.head.name
    assert(late.forall(_.source == hot))
    assert(early.map(_.source).distinct.size == SparkTestData.group.sources.size)
  }

  test("oracle: constructed microbatch sizes match a pure-SQL computation") {
    val (sampled, _) = MixSampler.draw(buffer, schedule, 0, 40)
    val plan = Planner.backboneBalance(sampled, tree, ctx, nBins, ModelConfigs.Llama12B)
    val rows = Planner.planRows(plan)
    val coll = DataConstructor.collate(spark, loaders.map(_.transformed(spark)), rows, ctx)
    val agg  = coll.groupBy("bucket", "bin").agg(sum("n_segments") as "n")
      .select(col("bucket").cast("long") as "bucket", col("bin").cast("long") as "bin", col("n"))
    import spark.implicits._
    val planDf = rows.toDF().select("sampleId", "bucket", "bin")
    Oracle.assertEquivalent(agg,
      "SELECT CAST(bucket AS BIGINT) AS bucket, CAST(bin AS BIGINT) AS bin, count(*) AS n " +
        "FROM plan GROUP BY 1, 2",
      "plan" -> planDf)
  }

  test("the simulated trainer consumes the same plan the constructor built") {
    val (sampled, _) = MixSampler.draw(buffer, schedule, 0, 60)
    val plan = Planner.hybridBalance(sampled, tree, ctx, nBins,
      ModelConfigs.Llama12B, ModelConfigs.ViT1B)
    val r = TrainSim.simulate(plan, ModelConfigs.Llama12B, ModelConfigs.ViT1B)
    assert(r.tokens == plan.totalTokens && r.throughputTokPerSec > 0)
  }

  test("packing efficiency of the sampled buffer is reasonable") {
    val (sampled, _) = MixSampler.draw(buffer, schedule, 0, 60)
    val seqs = Packing.firstFit(sampled, ctx)
    assert(Packing.efficiency(seqs, ctx) > 0.3)
  }
}
