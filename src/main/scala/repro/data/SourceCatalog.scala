package repro.data

import scala.util.Random

/** One training data source (one logical dataset file/stream).
  *
  * Distribution parameters are deterministic in (group, id) so Spark-side
  * generation, the DuckDB oracle, and the memory/cost simulators all see
  * the same source population.
  *
  * @param name            unique source name, e.g. "navit_data/src042"
  * @param id              index within its dataset group
  * @param group           dataset group name ("coyo700m" | "navit_data")
  * @param textBodyMax     text-length body: uniform in [4, textBodyMax]
  * @param textTailProb    probability a sample falls in the heavy tail
  * @param textTailXm      Pareto scale (minimum) of the tail
  * @param textTailAlpha   Pareto shape of the tail
  * @param patchLogMean    log-normal mu of image-patch count
  * @param patchLogSigma   log-normal sigma of image-patch count
  * @param transformSec    mean sample-transformation latency (Fig. 5 right)
  * @param fileStateBytes  per-source file access state M_d (Fig. 5 left)
  * @param relSize         relative dataset size (sampling weight prior)
  */
final case class SourceSpec(
    name: String,
    id: Int,
    group: String,
    textBodyMax: Int,
    textTailProb: Double,
    textTailXm: Int,
    textTailAlpha: Double,
    patchLogMean: Double,
    patchLogSigma: Double,
    transformSec: Double,
    fileStateBytes: Double,
    relSize: Double,
)

/** A named group of sources (the paper's two workload dataset groups). */
final case class DatasetGroup(name: String, sources: Seq[SourceSpec]) {
  def fileStates: Seq[Double] = sources.map(_.fileStateBytes)
}

/** Synthetic stand-ins for the paper's workloads (Sec. 7.1):
  *
  *  - `coyo700m`: 5 sources of short-text image-text pairs. Calibrated to
  *    Fig. 2: 98.23% of text sequences are <= 64 tokens and the top 1.62%
  *    (> 64 tokens) hold ~9.3% of all text tokens; image tokens are 16x16
  *    patch counts, log-normally skewed.
  *  - `navit_data`: 306 heterogeneous sources, longer text, 14x14 patches,
  *    per-source transformation latency and file-state memory drawn
  *    log-normally across sources to match the skew of Fig. 5
  *    (latency ~0.01–10 s, states ~tens of MB to a few GB).
  *
  * `navit100` is the first-100-sources subset the paper calls navit-100.
  */
object SourceCatalog {
  private val MiB = 1024.0 * 1024

  val coyo700m: DatasetGroup = DatasetGroup(
    "coyo700m",
    (0 until 5).map { i =>
      val rnd = new Random(1000L + i)
      SourceSpec(
        name = f"coyo700m/src$i%03d", id = i, group = "coyo700m",
        textBodyMax = 64, textTailProb = 0.0177, textTailXm = 65, textTailAlpha = 2.35,
        // 16x16-patch grids of variable-resolution images: most samples a
        // few hundred patch tokens, tail into the tens of thousands.
        patchLogMean = math.log(700.0) + rnd.nextGaussian() * 0.1, patchLogSigma = 1.5,
        transformSec = 0.001 * math.exp(rnd.nextGaussian() * 0.4),
        fileStateBytes = 120.0 * MiB * math.exp(rnd.nextGaussian() * 0.3),
        relSize = 1.0,
      )
    },
  )

  val navitData: DatasetGroup = DatasetGroup(
    "navit_data",
    (0 until 306).map { i =>
      val rnd = new Random(2000L + i)
      SourceSpec(
        name = f"navit_data/src$i%03d", id = i, group = "navit_data",
        textBodyMax = 256, textTailProb = 0.08, textTailXm = 257, textTailAlpha = 1.6,
        // NaViT-style any-resolution 14x14 patching: kilotokens per image
        // on average, heavy tail to context scale (Fig. 2 right).
        patchLogMean = math.log(1000.0) + rnd.nextGaussian() * 0.3, patchLogSigma = 1.8,
        // Fig. 5 right: latencies span ~3 orders of magnitude across
        // sources (same log-normal skew shape; absolute scale is reduced
        // ~25x to fit this repo's shorter simulated iteration budget —
        // only capacity/demand ratios enter the results).
        transformSec = 0.003 * math.exp(rnd.nextGaussian() * 1.5),
        // Fig. 5 left: file access states span ~20 MB .. ~2 GB.
        fileStateBytes = 150.0 * MiB * math.exp(rnd.nextGaussian() * 1.0),
        relSize = math.exp(rnd.nextGaussian() * 0.7),
      )
    },
  )

  val navit100: DatasetGroup = DatasetGroup("navit_100", navitData.sources.take(100))
}
