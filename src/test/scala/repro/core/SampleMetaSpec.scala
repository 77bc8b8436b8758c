package repro.core

import org.scalatest.funsuite.AnyFunSuite

class SampleMetaSpec extends AnyFunSuite {
  test("seqLen interleaves text and patch tokens") {
    assert(SampleMeta(1, "s", 30, 70).seqLen == 100)
  }
  test("pure-text samples have zero patches and full text length") {
    val m = SampleMeta(2, "s", 128, 0)
    assert(m.seqLen == 128 && m.imgPatches == 0)
  }
  test("metadata is value-comparable (planner dedup relies on it)") {
    assert(SampleMeta(4, "s", 1, 1) == SampleMeta(4, "s", 1, 1))
    assert(SampleMeta(4, "s", 1, 1) != SampleMeta(5, "s", 1, 1))
  }
}
