package repro.exp

import repro.sim.FaultSim
import repro.sim.FaultSim.{Config, Trace}

/** E5 — non-interrupted fault tolerance (paper Fig. 16, Sec. 7.5).
  *
  * Left: Planner failures injected every 15 iterations after 5 warmup
  * steps, with prefetch buffers of 2 vs 4 units — the deep buffer must
  * fully overlap checkpoint reload while the shallow one spikes.
  * Right: 5–10 of 64 Source Loaders killed at step 35 — shadow loaders
  * must recover with no visible fetch spike, cold restore must not.
  */
object E5FaultTolerance {

  def plannerCase(prefetch: Int): (Config, Vector[Trace]) = {
    val cfg = Config(iters = 60, iterSec = 1.0, fillSecPerBatch = 0.8,
      fetchBaseSec = 0.05, prefetch = prefetch, warmup = 5,
      plannerFailEvery = 15, plannerRecoverSec = 2.6)
    (cfg, FaultSim.run(cfg))
  }

  def loaderCase(shadow: Boolean): (Config, Vector[Trace]) = {
    val cfg = Config(iters = 60, iterSec = 1.0, fillSecPerBatch = 0.8,
      fetchBaseSec = 0.05, prefetch = 4, warmup = 5,
      loaderFailStep = 35,
      shadow = shadow, loaderRecoverSec = 8.0, shadowPromoteSec = 0.05)
    (cfg, FaultSim.run(cfg))
  }

  final case class Row(scenario: String, spikes: Int, maxFetch: Double,
                       meanFetch: Double, totalTime: Double)

  def rowOf(name: String, cfg: Config, tr: Vector[Trace]): Row =
    Row(name, FaultSim.spikes(tr, cfg).size, tr.map(_.fetchSec).max,
        tr.map(_.fetchSec).sum / tr.size,
        tr.map(_.fetchSec).sum + cfg.iters * cfg.iterSec)

  def run(): Seq[Row] = {
    val (c2, t2) = plannerCase(2)
    val (c4, t4) = plannerCase(4)
    val (cn, tn) = loaderCase(shadow = false)
    val (cs, ts) = loaderCase(shadow = true)
    Seq(rowOf("planner-fail buffer=2", c2, t2), rowOf("planner-fail buffer=4", c4, t4),
        rowOf("loader-fail cold-restore", cn, tn), rowOf("loader-fail shadow", cs, ts))
  }

  def table(rows: Seq[Row]): String =
    Tables.render("E5 / Fig.16 — fault tolerance (64 loaders; fetch time per iteration)",
      Seq("scenario", "fetch spikes", "max fetch s", "mean fetch s", "total time s"),
      rows.map(r => Seq(r.scenario, r.spikes.toString, Tables.f2(r.maxFetch),
                        Tables.f3(r.meanFetch), Tables.f1(r.totalTime))))

  def summary(rows: Seq[Row]): String = {
    def g(n: String) = rows.find(_.scenario == n).get
    s"buffer=4 spikes: ${g("planner-fail buffer=4").spikes} (paper: none, reload overlapped); " +
      s"buffer=2 spikes: ${g("planner-fail buffer=2").spikes} (paper: persistent spikes); " +
      s"shadow spikes: ${g("loader-fail shadow").spikes} vs cold ${g("loader-fail cold-restore").spikes} " +
      "(paper: shadow recovers immediately)"
  }
}
