package stepbench

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.costmodel.ModelConfigs
import repro.data.{DatasetGroup, MultiSourceGen, SourceCatalog, SourceSpec}
import repro.exp.Workload
import repro.loader.{DataConstructor, SourceLoader}
import scala.collection.parallel.CollectionConverters._

/** What one step produced: the checks and the plan statistics read it. */
final case class StepOut(input: Int, drawn: Vector[SampleMeta], plan: StepPlan, rows: Vector[PlanRow],
                         delivered: Option[Vector[Delivered]], shortfall: Int) {
  /** Tokens the step delivered to the trainer, or planned when nothing is delivered. */
  def tokens: Long = delivered.fold(plan.totalTokens)(_.groupBy(_.seqId).values.map(_.head.tokens).sum)
  def samples: Long = delivered.fold(rows.size.toLong)(_.groupBy(_.seqId).values.map(_.head.segLens.size.toLong).sum)
}

/** One workload: a trainer that asks for a step's data and waits for it. */
trait Bench {
  def name: String
  def tree: ClientPlaceTree
  def ctx: Long
  def nBins: Int
  /** Distinct step inputs; step i uses input i % inputs. */
  def inputs: Int
  /** Makes the seed's inputs under the work directory's `data`; not timed. */
  def prepare(): Unit = ()
  /** Builds what the first step needs; timed as set-up and run several times. */
  def setup(): Unit
  /** The data path of step `i`. `corrupt` edits the plan before it is used. */
  def step(i: Int, t: Tracer, c: Option[SparkCounters], corrupt: StepPlan => StepPlan): StepOut
  def check(o: StepOut): Vector[String] = Checks.plan(o.drawn, o.plan, o.rows, ctx)
  def close(): Unit = ()
}

object Bench {
  val backbone = ModelConfigs.Llama12B
  val encoder  = ModelConfigs.ViT2B
  val Ctx      = 32768L

  /** Mirrors the test suites' shared session: shuffle partitions 64,
    * broadcast joins off so the constructor really shuffles, no UI.
    */
  def session(work: Path): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("stepbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  /** The workloads and their sizes; `toy` shrinks each for the self-test. */
  def apply(name: String, seed: Long, work: Path, toy: Boolean = false): Bench = name match {
    case "step_coyo" =>
      val g = SourceCatalog.coyo700m
      // The curriculum doubles the first source's weight over the cycle,
      // so the last step input asks it for more than it still holds.
      new SparkStep(name, g, rowsPerSource = if (toy) 16 else 256, window = 128,
        LinearCurriculum(uniform(g.sources), Map(g.sources.head.name -> 2.0) ++ uniform(g.sources.tail), 3),
        shards = if (toy) 1 else 4, perShard = 4, seed, work)
    case "plan_2k" => new PlanStep(name, dp = if (toy) 8 else 1024, inputs = 2, seed)
    case other     => throw new IllegalArgumentException(s"unknown workload $other")
  }

  val names: Seq[String] = Seq("step_coyo", "plan_2k")

  private def uniform(ss: Seq[SourceSpec]): Map[String, Double] = ss.map(_.name -> 1.0).toMap
}

/** One Spark step: buffer metadata of every source, draw the mix, plan
  * with hybrid balance, flatten to plan rows, and one action over the
  * constructor's delivery of the collated sequences.
  *
  * Each source is written as `shards` Parquet shards, and every shard has
  * its own loaders. A step reads one shard, so a step's cost does not grow
  * with the shard count, while a run sees `shards` times more distinct
  * samples. Within a shard, like a loader that pops what was drawn from
  * the head of its read buffer, step input j reads each source after the
  * samples the mix asked of it at inputs 0..j-1, `window` samples deep.
  */
final class SparkStep(val name: String, group: DatasetGroup, rowsPerSource: Double, window: Int,
                      schedule: MixSchedule, shards: Int, perShard: Int, seed: Long, work: Path)
    extends Bench {
  val tree   = ClientPlaceTree(pp = 1, dp = 8, cp = 1, tp = 2)
  val ctx    = Bench.Ctx
  val nBins  = 4
  val batch  = 32 * tree.dp
  val inputs = shards * perShard
  private val broadcast = Set("TP")
  private val dirs = Vector.tabulate(shards)(c => work.resolve("data").resolve(s"$name-seed$seed-shard$c"))

  /** [input in shard][source] -> samples of that source consumed before the input. */
  private val offsets: Vector[Map[String, Int]] = {
    val names = group.sources.map(_.name).toSet
    (0 until perShard).scanLeft(Map.empty[String, Int]) { (acc, j) =>
      val want = MixSampler.counts(schedule.weights(j).view.filterKeys(names).toMap, batch)
      acc ++ want.map { case (src, n) => src -> (acc.getOrElse(src, 0) + n) }
    }.toVector
  }

  private var spark: SparkSession = _
  private var loaders: Vector[Seq[SourceLoader]] = Vector.empty
  private var outputs: Vector[Seq[DataFrame]] = Vector.empty

  override def prepare(): Unit = {
    val s = Bench.session(work)
    // One Spark job per source, side by side within a shard, to keep input
    // generation short. Shards are written one after another: concurrent
    // overwrites of same-named sources in different shards lost files.
    try for (c <- 0 until shards) group.sources.par.foreach { spec =>
      MultiSourceGen.writeGroupParquet(s, DatasetGroup(group.name, Seq(spec)), dirs(c).toString,
        sf = rowsPerSource / 20000.0, baseRowsPerSource = 20000L, seed = seed * 1009L + c)
    } finally s.stop()
  }

  def setup(): Unit = {
    close()
    spark = Bench.session(work)
    loaders = dirs.map(d => group.sources.map(SourceLoader(_, d.toString)))
    outputs = loaders.map(_.map(_.transformed(spark)))
  }

  def sparkSession: SparkSession = spark

  private def tagged[A](c: Option[SparkCounters], layer: String, i: Int)(body: => A): A =
    c.fold(body)(_.tagged(spark.sparkContext, layer, i)(body))

  def step(i: Int, t: Tracer, c: Option[SparkCounters], corrupt: StepPlan => StepPlan): StepOut = {
    val k     = i % inputs
    val shard = k / perShard
    val j     = k % perShard
    val buffer = t.span("loader.buffer", i) {
      tagged(c, "loader", i) {
        loaders(shard).flatMap { l =>
          val from = offsets(j).getOrElse(l.spec.name, 0)
          l.bufferMetadata(spark, from + window).drop(from)
        }.toVector
      }
    }
    val (drawn, shortfall) = t.span("core.mix", i)(MixSampler.draw(buffer, schedule, j, batch))
    val plan = corrupt(t.span("core.plan", i) {
      Planner.hybridBalance(drawn, tree, ctx, nBins, Bench.backbone, Bench.encoder)
    })
    val rows = t.span("core.plan_rows", i)(Planner.planRows(plan))
    val collated = t.span("constructor.collate", i)(DataConstructor.collate(spark, outputs(shard), rows, ctx))
    val delivered = t.span("constructor.deliver", i) {
      tagged(c, "constructor", i) {
        DataConstructor.deliver(spark, collated, tree, broadcast)
          .select("bucket", "bin", "seqId", "rank", "seg_lens", "tokens")
          .collect()
          .map(r => Delivered(r.getInt(0), r.getInt(1), r.getLong(2), r.getInt(3),
                              r.getSeq[Long](4).toVector, r.getLong(5)))
          .toVector
      }
    }
    StepOut(k, drawn, plan, rows, Some(delivered), shortfall.values.sum)
  }

  override def check(o: StepOut): Vector[String] =
    super.check(o) ++ Checks.delivery(o.plan, o.delivered.getOrElse(Vector.empty), tree, broadcast)

  override def close(): Unit = if (spark != null) { spark.stop(); spark = null }
}

/** The Planner alone at a large mesh: hybrid balance plus plan rows over
  * a prebuilt navit_data buffer of 32 samples per DP rank.
  */
final class PlanStep(val name: String, dp: Int, val inputs: Int, seed: Long) extends Bench {
  val ctx   = Bench.Ctx
  val nBins = 8
  var tree: ClientPlaceTree = _
  private var buffers: Vector[Vector[SampleMeta]] = Vector.empty

  def setup(): Unit = {
    tree = ClientPlaceTree(pp = 1, dp = dp, cp = 1, tp = 2)
    // stepBuffer seeds its pool with seed + step; spacing the seeds keeps
    // the buffers of neighbouring benchmark seeds apart.
    buffers = Vector.tabulate(inputs) { k =>
      Workload.stepBuffer(SourceCatalog.navitData, dp, nBins, ctx, step = k, seed = seed * 1009L)
    }
  }

  def step(i: Int, t: Tracer, c: Option[SparkCounters], corrupt: StepPlan => StepPlan): StepOut = {
    val k = i % inputs
    val buffer = buffers(k)
    val plan = corrupt(t.span("core.plan", i) {
      Planner.hybridBalance(buffer, tree, ctx, nBins, Bench.backbone, Bench.encoder)
    })
    val rows = t.span("core.plan_rows", i)(Planner.planRows(plan))
    StepOut(k, buffer, plan, rows, None, 0)
  }
}
