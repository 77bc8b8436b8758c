package repro.costmodel

import org.scalatest.funsuite.AnyFunSuite

/** T1 — paper Table 1 is reproduced as code; these assertions pin the
  * published layer/head/hidden numbers.
  */
class ModelConfigsSpec extends AnyFunSuite {
  import ModelConfigs._

  test("ViT-1B matches Table 1") { assert(ViT1B.layers == 39 && ViT1B.heads == 16 && ViT1B.hidden == 1408) }
  test("ViT-2B matches Table 1") { assert(ViT2B.layers == 48 && ViT2B.heads == 16 && ViT2B.hidden == 1664) }
  test("Llama-12B matches Table 1") {
    assert(Llama12B.layers == 45 && Llama12B.heads == 36 && Llama12B.hidden == 4608)
    assert(!Llama12B.isMoE)
  }
  test("tMoE-25B matches Table 1 (hidden 2048, top-2)") {
    assert(TMoE25B.layers == 42 && TMoE25B.heads == 16 && TMoE25B.hidden == 2048)
    assert(TMoE25B.isMoE && TMoE25B.topK == 2)
  }
  test("Mixtral-8x7B matches Table 1 (hidden 4096, top-2 of 8)") {
    assert(Mixtral8x7B.layers == 32 && Mixtral8x7B.heads == 32 && Mixtral8x7B.hidden == 4096)
    assert(Mixtral8x7B.isMoE && Mixtral8x7B.numExperts == 8 && Mixtral8x7B.topK == 2)
  }
  test("model zoo groups encoders and backbones") {
    assert(encoders.size == 2 && backbones.size == 3 && all.size == 5)
  }
  test("hidden size must divide head count") {
    intercept[IllegalArgumentException](ModelConfig("bad", 2, 7, 100))
  }
  test("configs reject non-positive dimensions") {
    intercept[IllegalArgumentException](ModelConfig("bad", 0, 2, 4))
  }
}
