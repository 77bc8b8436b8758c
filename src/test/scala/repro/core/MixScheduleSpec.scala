package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MixScheduleSpec extends AnyFunSuite {

  test("StaticMix returns the same weights at every step") {
    val m = StaticMix(Map("a" -> 0.7, "b" -> 0.3))
    assert(m.weights(0) == m.weights(1000))
  }

  test("LinearCurriculum interpolates from easy to hard") {
    val m = LinearCurriculum(Map("easy" -> 1.0), Map("hard" -> 1.0), steps = 100)
    assert(m.weights(0) == Map("easy" -> 1.0, "hard" -> 0.0))
    assert(m.weights(100) == Map("easy" -> 0.0, "hard" -> 1.0))
    val mid = m.weights(50)
    assert(math.abs(mid("easy") - 0.5) < 1e-12 && math.abs(mid("hard") - 0.5) < 1e-12)
  }

  test("LinearCurriculum clamps beyond its range") {
    val m = LinearCurriculum(Map("a" -> 1.0), Map("b" -> 1.0), steps = 10)
    assert(m.weights(10000) == m.weights(10))
  }

  test("counts sum exactly to the batch size") {
    val c = MixSampler.counts(Map("a" -> 0.3, "b" -> 0.3, "c" -> 0.4), 10)
    assert(c.values.sum == 10)
  }

  test("counts are proportional within one unit") {
    val c = MixSampler.counts(Map("a" -> 0.5, "b" -> 0.25, "c" -> 0.25), 100)
    assert(c("a") == 50 && c("b") == 25 && c("c") == 25)
  }

  test("largest-remainder rounding is deterministic and fair") {
    val c = MixSampler.counts(Map("a" -> 1.0, "b" -> 1.0, "c" -> 1.0), 10)
    assert(c.values.sum == 10)
    assert(c.values.forall(v => v == 3 || v == 4))
    assert(c == MixSampler.counts(Map("a" -> 1.0, "b" -> 1.0, "c" -> 1.0), 10))
  }

  test("zero and negative weights draw nothing") {
    val c = MixSampler.counts(Map("a" -> 1.0, "b" -> 0.0), 8)
    assert(c("b") == 0 && c("a") == 8)
  }

  test("all-zero weights yield an empty draw") {
    assert(MixSampler.counts(Map("a" -> 0.0), 8).values.sum == 0)
  }

  test("unnormalized weights behave like normalized ones") {
    assert(MixSampler.counts(Map("a" -> 2.0, "b" -> 2.0), 10) ==
           MixSampler.counts(Map("a" -> 0.5, "b" -> 0.5), 10))
  }

  test("draw takes the first buffered samples of each source in order") {
    val buf = Seq(SampleMeta(1, "a", 5, 0), SampleMeta(2, "a", 5, 0), SampleMeta(3, "b", 5, 0))
    val (taken, short) = MixSampler.draw(buf, StaticMix(Map("a" -> 0.5, "b" -> 0.5)), 0, 2)
    assert(taken.map(_.id).sorted == Vector(1L, 3L))
    assert(short.isEmpty)
  }

  test("draw reports per-source shortfall when the buffer is thin") {
    val buf = Seq(SampleMeta(1, "a", 5, 0))
    val (taken, short) = MixSampler.draw(buf, StaticMix(Map("a" -> 1.0)), 0, 4)
    assert(taken.size == 1 && short == Map("a" -> 3))
  }

  test("draw ignores schedule sources absent from the buffer") {
    val buf = Seq(SampleMeta(1, "a", 5, 0), SampleMeta(2, "a", 5, 0))
    val (taken, _) = MixSampler.draw(buf, StaticMix(Map("a" -> 0.5, "ghost" -> 0.5)), 0, 2)
    assert(taken.size == 2 && taken.forall(_.source == "a"))
  }

  test("curriculum shifts drawn proportions over steps") {
    val sched = LinearCurriculum(Map("a" -> 1.0, "b" -> 0.0), Map("a" -> 0.0, "b" -> 1.0), 100)
    val early = MixSampler.counts(sched.weights(0), 100)
    val late  = MixSampler.counts(sched.weights(100), 100)
    assert(early("a") == 100 && late("b") == 100)
  }
}
