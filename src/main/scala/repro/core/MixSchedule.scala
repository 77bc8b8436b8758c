package repro.core

/** A multisource mixing schedule: sampling weight per source per training
  * step (Sec. 4.2 `mix(schedule)`). Weights need not be normalized; the
  * sampler normalizes over sources actually present.
  */
trait MixSchedule {
  def weights(step: Int): Map[String, Double]
}

/** Fixed mixture (classic data-mixture training). */
final case class StaticMix(w: Map[String, Double]) extends MixSchedule {
  def weights(step: Int): Map[String, Double] = w
}

/** Linear interpolation from `from` to `to` over `steps` steps — the
  * easy-to-hard progression of curriculum learning (Sec. 2.1).
  */
final case class LinearCurriculum(from: Map[String, Double], to: Map[String, Double], steps: Int)
    extends MixSchedule {
  require(steps > 0)
  def weights(step: Int): Map[String, Double] = {
    val a = math.min(1.0, math.max(0.0, step.toDouble / steps))
    (from.keySet ++ to.keySet).map { s =>
      s -> ((1 - a) * from.getOrElse(s, 0.0) + a * to.getOrElse(s, 0.0))
    }.toMap
  }
}

/** Deterministic proportional sampler over a mixing schedule. */
object MixSampler {

  /** Integer sample counts per source for a batch of `batch` samples,
    * proportional to `weights`, by the largest-remainder method — exact
    * total, deterministic, order-independent.
    */
  def counts(weights: Map[String, Double], batch: Int): Map[String, Int] = {
    require(batch >= 0)
    val pos = weights.filter(_._2 > 0)
    if (pos.isEmpty || batch == 0) return weights.map { case (k, _) => k -> 0 }
    val z     = pos.values.sum
    val exact = pos.toSeq.sortBy(_._1).map { case (s, w) => (s, w / z * batch) }
    val base  = exact.map { case (s, e) => (s, e.floor.toInt, e - e.floor) }
    var left  = batch - base.map(_._2).sum
    val bumped = base.sortBy { case (s, _, frac) => (-frac, s) }.map { case (s, b, _) =>
      if (left > 0) { left -= 1; (s, b + 1) } else (s, b)
    }
    weights.map { case (k, _) => k -> 0 } ++ bumped.toMap
  }

  /** Draws samples from a buffer per the schedule at `step`: the first
    * `counts(source)` buffered samples of each source, preserving buffer
    * order (Source Loaders pop from the head of their read buffers).
    * Sources with fewer buffered samples than requested contribute what
    * they have; the shortfall is reported so the Planner can re-plan.
    */
  def draw(buffer: Seq[SampleMeta], schedule: MixSchedule, step: Int,
           batch: Int): (Vector[SampleMeta], Map[String, Int]) = {
    val want  = counts(schedule.weights(step).view.filterKeys(buffer.map(_.source).toSet).toMap, batch)
    val bySrc = buffer.groupBy(_.source)
    val taken = want.toSeq.sortBy(_._1).flatMap { case (s, k) =>
      bySrc.getOrElse(s, Seq.empty).take(k)
    }.toVector
    val shortfall = want.map { case (s, k) =>
      s -> math.max(0, k - bySrc.getOrElse(s, Seq.empty).size)
    }.filter(_._2 > 0)
    (taken, shortfall)
  }
}
