package stepbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import repro.core._
import repro.data.Packing
import repro.sim.TrainSim
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Plan quality of one step input: deterministic for a seed. */
final case class Quality(tokens: Long, items: Int, seqs: Int, shortfall: Int, bucketImbalance: Double,
                         encoderImbalance: Double, packEfficiency: Double, paddingTokens: Long,
                         simTokPerS: Double, gpuImbalance: Double)

/** One attempted step: wall time of the data path, what it delivered
  * (`ran` is false when it threw), and the checks it broke. It keeps no
  * reference to the step's output, so the live heap measures the program.
  */
final case class Attempt(i: Int, wall: Double, ran: Boolean, tokens: Long, samples: Long,
                         errors: Vector[String], gcSeconds: Double, gcCount: Long, traced: Boolean) {
  def failed: Boolean = errors.nonEmpty
}

/** The closed loop: one trainer runs steps back to back, each waiting for
  * the previous one. Set-up is timed on its own, the first steps warm up
  * untimed, then steps are timed for the given seconds.
  */
final class Runner(b: Bench, traced: Boolean) {
  val tracer   = new Tracer
  val counters = if (traced) Some(new SparkCounters) else None
  val quality  = mutable.LinkedHashMap.empty[Int, Quality]

  def attempt(i: Int, trace: Boolean, corrupt: StepPlan => StepPlan = identity): Attempt = {
    tracer.on = trace
    val (gcT0, gcN0) = Runner.gc()
    val t0  = System.nanoTime()
    val out =
      try Right(tracer.span("step", i)(b.step(i, tracer, counters.filter(_ => trace), corrupt)))
      catch { case NonFatal(e) => Left(e) }
    val wall = (System.nanoTime() - t0) / 1e9
    val (gcT1, gcN1) = Runner.gc()
    val errors = tracer.span("aux", i) {
      out match {
        case Left(e) => Vector(s"step threw $e")
        case Right(o) =>
          val errs = tracer.span("check", i)(b.check(o))
          if (!quality.contains(o.input) || trace) {
            val sim = tracer.span("sim.train", i)(TrainSim.simulate(o.plan, Bench.backbone, Bench.encoder))
            quality.getOrElseUpdate(o.input, Runner.quality(b, o, sim))
          }
          if (trace) decompose(i, o)
          errs
      }
    }
    tracer.on = false
    Attempt(i, wall, out.isRight, out.fold(_ => 0L, _.tokens), out.fold(_ => 0L, _.samples), errors,
            gcT1 - gcT0, gcN1 - gcN0, trace)
  }

  /** Runs hybrid balance's public parts one by one on the step's input,
    * after the step, so that each gets its own span.
    */
  private def decompose(i: Int, o: StepOut): Unit = {
    val seqs = tracer.span("data.pack", i)(Packing.firstFit(o.drawn, b.ctx))
    tracer.span("core.balance", i) {
      Orchestration.packed(b.tree, seqs).distribute("DP").cost(CostFns.backbone(Bench.backbone))
        .balance("greedybinpack", b.nBins).broadcastAt("TP").plan()
    }
    tracer.span("core.encoder_balance", i) {
      (0 until b.nBins).map { m =>
        Balancer.greedyBinPack(Planner.imagesOf(o.plan.backboneCells.flatMap(_(m))), b.tree.world,
                               CostFns.encoder(Bench.encoder))
      }
    }
  }

  /** Heap in use right after a full collection, in MiB. */
  def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

object Runner {
  val SetupRuns = 3
  val WarmUpSteps = 2

  def gc(): (Double, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionTime).filter(_ > 0).sum / 1e3, beans.map(_.getCollectionCount).filter(_ > 0).sum)
  }

  def quality(b: Bench, o: StepOut, sim: TrainSim.IterResult): Quality = {
    val p    = o.plan
    val seqs = p.allSeqs
    val enc  = CostFns.encoder(Bench.encoder)
    Quality(
      tokens = o.tokens, items = o.drawn.size, seqs = seqs.size, shortfall = o.shortfall,
      bucketImbalance = Balancer.imbalance(p.backboneCells.map(_.flatten), CostFns.backbone(Bench.backbone)),
      encoderImbalance = Stats.mean((0 until p.nBins).map(m => Balancer.imbalance(p.encoderCells.map(_(m)), enc))),
      packEfficiency = Packing.efficiency(seqs, b.ctx), paddingTokens = seqs.map(_.padding(b.ctx)).sum,
      simTokPerS = sim.throughputTokPerSec, gpuImbalance = sim.gpuImbalance)
  }

  /** (steal, total) CPU jiffies of the whole host from /proc/stat: time the
    * hypervisor gave this machine's CPUs to others. Zeros where unavailable.
    */
  def cpuJiffies(): (Long, Long) =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      val f   = try src.getLines().next().trim.split("\\s+").drop(1).map(_.toLong) finally src.close()
      (if (f.length > 7) f(7) else 0L, f.sum)
    } catch { case NonFatal(_) => (0L, 0L) }

  /** A fixed CPU loop; its time shows how fast the host ran. */
  def calibrate(): Double = Stats.median((1 to 3).map { _ =>
    val t0 = System.nanoTime()
    var x  = 1L
    var n  = 0
    while (n < 100000000) { x = x * 6364136223846793005L + 1442695040888963407L; n += 1 }
    if (x == 42L) println("")
    (System.nanoTime() - t0) / 1e9
  })
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
  def mean(xs: Seq[Double]): Double   = if (xs.isEmpty) 0.0 else xs.sum / xs.size
  /** Linear interpolation between order statistics. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s   = xs.sorted
    val pos = q * (s.size - 1)
    val lo  = pos.floor.toInt
    val hi  = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}

object Main {
  final case class Metric(name: String, value: Double, unit: String)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val work = Paths.get(opts.getOrElse("work", "stepbench/.work")).toAbsolutePath
    val code =
      try {
        if (opts.get("selftest").contains("1")) SelfTest.run(work)
        else {
          val b = Bench(opts("workload"), opts("seed").toLong, work)
          run(b, opts("seed").toLong, opts("seconds").toDouble, opts.get("trace").contains("1"), work)
        }
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          2
      }
    sys.exit(code)
  }

  def run(b: Bench, seed: Long, seconds: Double, traced: Boolean, work: Path): Int = {
    val r          = new Runner(b, traced)
    val calibStart = Runner.calibrate()
    val t0         = System.nanoTime()
    b.prepare()
    val t1         = System.nanoTime()
    val setups = (1 to Runner.SetupRuns).map { _ =>
      val t0 = System.nanoTime(); b.setup(); (System.nanoTime() - t0) / 1e9
    }
    b match {
      case s: SparkStep => r.counters.foreach(s.sparkSession.sparkContext.addSparkListener)
      case _            =>
    }
    val t2    = System.nanoTime()
    val warm  = (0 until Runner.WarmUpSteps).map(i => r.attempt(i, trace = false))
    val timed = mutable.ArrayBuffer.empty[Attempt]
    val heap  = mutable.ArrayBuffer.empty[Double]
    val start = System.nanoTime()
    val cpu0  = Runner.cpuJiffies()
    var i     = warm.size
    while (timed.isEmpty || (System.nanoTime() - start) / 1e9 < seconds) {
      // A traced run alternates traced and untraced steps to measure what tracing costs.
      timed += r.attempt(i, trace = traced && timed.size % 2 == 0)
      heap += r.liveHeapMb()
      i += 1
    }
    val t3 = System.nanoTime()
    val cpu1  = Runner.cpuJiffies()
    val steal = if (cpu1._2 > cpu0._2) (cpu1._1 - cpu0._1).toDouble / (cpu1._2 - cpu0._2) else 0.0
    // Plan quality covers every step input, also those a short run did not reach.
    val uncovered = (i until i + b.inputs).filterNot(j => r.quality.contains(j % b.inputs))
    val late      = uncovered.map(r.attempt(_, trace = false))
    val calibEnd  = Runner.calibrate()
    val all       = warm ++ timed ++ late
    val failed   = all.count(_.failed)

    val walls = timed.map(_.wall).toVector
    val q     = r.quality.values.toVector
    val summary = mutable.ArrayBuffer(
      f"${b.name} seed $seed: ${timed.size} timed steps after ${warm.size} warm-up steps, $failed of ${all.size} failed",
      f"step_s median ${Stats.median(walls)}%.4f p25 ${Stats.quantile(walls, 0.25)}%.4f p75 ${Stats.quantile(walls, 0.75)}%.4f max ${walls.max}%.4f (n=${walls.size})",
      s"setup_s runs ${setups.map(s => f"$s%.3f").mkString(" ")}",
      f"phases: inputs ${(t1 - t0) / 1e9}%.1f s, set-up ${(t2 - t1) / 1e9}%.1f s, warm-up ${(start - t2) / 1e9}%.1f s, timed ${(t3 - start) / 1e9}%.1f s",
      s"tokens per step input ${r.quality.map { case (k, x) => s"$k:${x.tokens}" }.mkString(" ")}",
      f"host.calib_s start $calibStart%.4f end $calibEnd%.4f; host CPU stolen while timed ${steal * 100}%.1f%%; " +
        f"jvm gc over timed steps ${timed.map(_.gcSeconds).sum}%.3f s in ${timed.map(_.gcCount).sum} collections",
    )
    all.filter(_.failed).take(5).foreach(a => summary += s"step ${a.i} failed: ${a.errors.mkString("; ")}")

    val metrics =
      if (!traced) Seq(
        Metric("setup_s", Stats.median(setups), "s"),
        Metric("step_s", Stats.median(walls), "s"),
        Metric("tok_per_s", timed.map(_.tokens).sum / walls.sum, "tok/s"),
        Metric("sim_tok_per_s", Stats.mean(q.map(_.simTokPerS)), "tok/s"),
        Metric("heap_live_mb", heap.max, "MiB"),
      )
      else layerMetrics(b, r, timed.toVector, work, seed, summary) ++ Seq(
        Metric("host.calib_s", (calibStart + calibEnd) / 2, "s"),
        Metric("host.steal_share", steal, "ratio"))

    summary.foreach(println)
    println(Json.obj(
      "correct"   -> (failed == 0).toString,
      "attempted" -> all.size.toString,
      "failed"    -> failed.toString,
      "metrics"   -> Json.obj(metrics.map(m =>
        m.name -> Json.obj("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))): _*)))
    b.close()
    deleteTree(work.resolve("data"))
    0
  }

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val all = Files.walk(p)
      try all.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(q => Files.delete(q))
      finally all.close()
    }

  /** Per-layer numbers of a traced run: medians over its traced steps of
    * each layer's span and Spark counters, plan quality averaged over the
    * step inputs, and the trace's own coverage and overhead.
    */
  def layerMetrics(b: Bench, r: Runner, timed: Vector[Attempt], work: Path, seed: Long,
                   summary: mutable.ArrayBuffer[String]): Seq[Metric] = {
    val t      = r.tracer
    val traced = timed.filter(_.traced)
    val steps  = traced.map(_.i).toSet
    val spans  = t.all.filter(s => steps.contains(s.step))
    def span(name: String): Map[Int, Double] =
      spans.filter(_.name == name).groupBy(_.step).map { case (i, ss) => i -> ss.map(_.seconds).sum }
    def med(name: String): Double = { val v = span(name).values.toSeq; if (v.isEmpty) 0.0 else Stats.median(v) }

    val rootSpans = spans.filter(s => s.name == "step" && s.parent == -1)
    val coverage  = rootSpans.map(t.coverage)
    val plan      = span("core.plan")
    val parts     = Seq("data.pack", "core.balance", "core.encoder_balance").map(span)
    val rest      = plan.map { case (i, p) => p - parts.map(_.getOrElse(i, 0.0)).sum }.toSeq

    val spark = b match {
      case s: SparkStep => r.counters.map(c => (s.sparkSession.sparkContext, c))
      case _            => None
    }
    def counter(layer: String)(f: LayerCount => Double): Double = spark match {
      case Some((sc, c)) => Stats.median(traced.map(a => f(c.get(sc, layer, a.i))))
      case None          => 0.0
    }
    val readAmp = spark match {
      case Some((sc, c)) =>
        Stats.median(traced.filter(_.ran).map(a => c.get(sc, "constructor", a.i).rowsRead.toDouble / a.samples))
      case None => 0.0
    }
    spark.foreach { case (sc, c) =>
      for (a <- traced; layer <- Seq("loader", "constructor")) {
        val x = c.get(sc, layer, a.i)
        t.record(Json.obj("counter" -> Json.str(layer), "step" -> a.i.toString, "jobs" -> x.jobs.toString,
          "tasks" -> x.tasks.toString, "rows_read" -> x.rowsRead.toString, "bytes_read" -> x.bytesRead.toString,
          "shuffle_write_bytes" -> x.shuffleWrite.toString, "shuffle_read_bytes" -> x.shuffleRead.toString,
          "executor_run_ms" -> x.runMs.toString, "executor_cpu_ns" -> x.cpuNs.toString))
      }
    }
    val tracePath = work.resolve("trace").resolve(s"${b.name}-seed$seed.jsonl")
    t.writeJsonLines(tracePath)

    val untracedWall = timed.filterNot(_.traced).map(_.wall)
    val overhead =
      if (untracedWall.isEmpty) 0.0 else Stats.median(traced.map(_.wall)) / Stats.median(untracedWall) - 1
    summary += s"trace written to $tracePath; layer, median span s, median self s, spans:"
    spans.groupBy(_.name).toSeq.sortBy(_._1).foreach { case (name, ss) =>
      summary += f"  $name%-22s ${Stats.median(ss.map(_.seconds))}%.4f ${Stats.median(ss.map(t.selfSeconds))}%.4f ${ss.size}"
    }
    summary += f"top-level spans cover ${coverage.min * 100}%.1f%% of each traced step at least; " +
      f"tracing overhead ${overhead * 100}%.1f%% on step_s (${traced.size} traced vs ${untracedWall.size} untraced steps)"

    val q = r.quality.values.toVector
    def qm(f: Quality => Double): Double = Stats.mean(q.map(f))
    Seq(
      Metric("loader.buffer_s", med("loader.buffer"), "s"),
      Metric("loader.buffer_jobs", counter("loader")(_.jobs.toDouble), "count"),
      Metric("loader.buffer_rows_read", counter("loader")(_.rowsRead.toDouble), "rows"),
      Metric("core.mix_s", med("core.mix"), "s"),
      Metric("core.mix_shortfall", qm(_.shortfall.toDouble), "samples"),
      Metric("constructor.collate_s", med("constructor.collate"), "s"),
      Metric("constructor.deliver_s", med("constructor.deliver"), "s"),
      Metric("constructor.rows_read", counter("constructor")(_.rowsRead.toDouble), "rows"),
      Metric("constructor.bytes_read", counter("constructor")(_.bytesRead.toDouble), "bytes"),
      Metric("constructor.shuffle_write_bytes", counter("constructor")(_.shuffleWrite.toDouble), "bytes"),
      Metric("constructor.shuffle_read_bytes", counter("constructor")(_.shuffleRead.toDouble), "bytes"),
      Metric("constructor.tasks", counter("constructor")(_.tasks.toDouble), "count"),
      Metric("constructor.executor_run_s", counter("constructor")(_.runMs / 1e3), "s"),
      Metric("constructor.executor_cpu_s", counter("constructor")(_.cpuNs / 1e9), "s"),
      Metric("constructor.read_amplification", readAmp, "ratio"),
      Metric("core.plan_s", med("core.plan"), "s"),
      Metric("core.plan_rows_s", med("core.plan_rows"), "s"),
      Metric("data.pack_s", med("data.pack"), "s"),
      Metric("core.balance_s", med("core.balance"), "s"),
      Metric("core.encoder_balance_s", med("core.encoder_balance"), "s"),
      Metric("core.plan_rest_s", if (rest.isEmpty) 0.0 else Stats.median(rest), "s"),
      Metric("core.items", qm(_.items.toDouble), "count"),
      Metric("core.seqs", qm(_.seqs.toDouble), "count"),
      Metric("core.bucket_imbalance", qm(_.bucketImbalance), "ratio"),
      Metric("core.encoder_imbalance", qm(_.encoderImbalance), "ratio"),
      Metric("data.pack_efficiency", qm(_.packEfficiency), "ratio"),
      Metric("data.padding_tokens", qm(_.paddingTokens.toDouble), "tokens"),
      Metric("sim.gpu_imbalance", qm(_.gpuImbalance), "ratio"),
      Metric("sim.train_s", med("sim.train"), "s"),
      Metric("jvm.gc_s", timed.map(_.gcSeconds).sum, "s"),
      Metric("jvm.gc_count", timed.map(_.gcCount).sum.toDouble, "count"),
      Metric("trace.step_coverage", coverage.min, "ratio"),
      Metric("trace.overhead", overhead, "ratio"),
    )
  }
}
