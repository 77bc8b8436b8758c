package repro.costmodel

/** Transformer model configuration (paper Table 1).
  *
  * @param name        model name as reported in Table 1
  * @param layers      number of transformer layers
  * @param heads       number of attention heads
  * @param hidden      hidden size
  * @param ffnMult     FFN expansion factor (intermediate = ffnMult * hidden)
  * @param topK        experts activated per token; 1 for dense models
  * @param numExperts  total expert count (equals 1 for dense models)
  */
final case class ModelConfig(
    name: String,
    layers: Int,
    heads: Int,
    hidden: Int,
    ffnMult: Double = 4.0,
    topK: Int = 1,
    numExperts: Int = 1,
) {
  require(layers > 0 && heads > 0 && hidden > 0, s"invalid config $name")
  require(hidden % heads == 0, s"$name: hidden must divide heads")

  /** True for Mixture-of-Experts backbones (tMoE, Mixtral). */
  def isMoE: Boolean = numExperts > 1
}

/** The model zoo of paper Table 1: two ViT encoders, one dense LLM and two
  * MoE LLM backbones. Hidden sizes, layer and head counts are verbatim from
  * the table; FFN multiplier and expert counts use the public architecture
  * of each family (ViT 4x, Llama 3 ~3.5x gated, Mixtral 8 experts top-2).
  */
object ModelConfigs {
  val ViT1B: ModelConfig = ModelConfig("ViT-1B", layers = 39, heads = 16, hidden = 1408)
  val ViT2B: ModelConfig = ModelConfig("ViT-2B", layers = 48, heads = 16, hidden = 1664)

  val Llama12B: ModelConfig =
    ModelConfig("Llama-12B", layers = 45, heads = 36, hidden = 4608, ffnMult = 3.5)
  val TMoE25B: ModelConfig =
    ModelConfig("tMoE-25B", layers = 42, heads = 16, hidden = 2048,
                ffnMult = 4.0, topK = 2, numExperts = 16)
  val Mixtral8x7B: ModelConfig =
    ModelConfig("Mixtral-8x7B", layers = 32, heads = 32, hidden = 4096,
                ffnMult = 3.5, topK = 2, numExperts = 8)

  val encoders: Seq[ModelConfig]  = Seq(ViT1B, ViT2B)
  val backbones: Seq[ModelConfig] = Seq(Llama12B, TMoE25B, Mixtral8x7B)
  val all: Seq[ModelConfig]       = encoders ++ backbones
}
