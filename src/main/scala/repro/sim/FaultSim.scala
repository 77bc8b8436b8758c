package repro.sim

/** Discrete-event simulation of the non-interrupted fault-tolerance
  * mechanisms (Sec. 6.1, evaluated in Fig. 16).
  *
  * A producer pipeline (Planner + Source Loaders + Constructors) fills a
  * trainer-side prefetch buffer at `fillSecPerBatch` per batch; the
  * trainer consumes one batch per iteration. Failures stall the producer:
  *
  *  - Planner failure: stall for checkpoint reload (`plannerRecoverSec`);
  *    with a deep-enough prefetch buffer the reload is fully overlapped.
  *  - Source Loader failure: without shadows, stall for buffer-checkpoint
  *    restore plus differential replay (`loaderRecoverSec`); with shadow
  *    loaders, a warm standby is promoted in `shadowPromoteSec`.
  *
  * The observable is per-iteration data fetch time — flat at
  * `fetchBaseSec` while the buffer holds, spiking by the uncovered stall
  * otherwise.
  */
object FaultSim {

  final case class Config(
      iters: Int = 60,
      iterSec: Double = 1.0,
      fillSecPerBatch: Double = 0.8,
      fetchBaseSec: Double = 0.05,
      prefetch: Int = 4,
      warmup: Int = 5,
      /** Planner killed every `plannerFailEvery` iters after warmup; 0 = never. */
      plannerFailEvery: Int = 0,
      plannerRecoverSec: Double = 3.0,
      /** Step at which loaders are killed; negative = never. */
      loaderFailStep: Int = -1,
      loadersKilled: Int = 0,
      shadow: Boolean = false,
      loaderRecoverSec: Double = 8.0,
      shadowPromoteSec: Double = 0.05,
  )

  final case class Trace(step: Int, fetchSec: Double, bufferAfter: Int)

  def run(cfg: Config): Vector[Trace] = {
    var t       = 0.0
    var buf     = cfg.prefetch
    var prodAt  = 0.0 // time the producer finishes its in-flight batch
    val out     = Vector.newBuilder[Trace]

    def advanceProducer(now: Double): Unit = {
      var go = true
      while (go) {
        if (buf >= cfg.prefetch) { prodAt = math.max(prodAt, now); go = false }
        else if (prodAt + cfg.fillSecPerBatch <= now) { prodAt += cfg.fillSecPerBatch; buf += 1 }
        else go = false
      }
    }

    (0 until cfg.iters).foreach { step =>
      // Failure injection stalls the producer from `t`.
      val plannerFails =
        cfg.plannerFailEvery > 0 && step > cfg.warmup &&
          (step - cfg.warmup) % cfg.plannerFailEvery == 0
      if (plannerFails) prodAt = math.max(prodAt, t) + cfg.plannerRecoverSec
      if (step == cfg.loaderFailStep && cfg.loadersKilled > 0) {
        val stall = if (cfg.shadow) cfg.shadowPromoteSec else cfg.loaderRecoverSec
        prodAt = math.max(prodAt, t) + stall
      }

      advanceProducer(t)
      val fetch =
        if (buf > 0) { buf -= 1; cfg.fetchBaseSec }
        else {
          // Wait for the in-flight batch and consume it directly.
          val ready = prodAt + cfg.fillSecPerBatch
          val wait  = math.max(0.0, ready - t)
          prodAt = ready
          cfg.fetchBaseSec + wait
        }
      t += fetch + cfg.iterSec
      advanceProducer(t)
      out += Trace(step, fetch, buf)
    }
    out.result()
  }

  /** Steps whose fetch time exceeds `factor` x the base fetch time. */
  def spikes(trace: Seq[Trace], cfg: Config, factor: Double = 3.0): Seq[Int] =
    trace.filter(_.fetchSec > cfg.fetchBaseSec * factor).map(_.step)
}
