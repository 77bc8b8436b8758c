package repro.exp

import repro.costmodel.ModelConfigs

/** The driver-side tables T1 and E1–E7 as `jobs.RunAll` prints them: each
  * section is one table plus its paper-vs-measured summary, where it has
  * one. `src/test/resources/golden/tables.txt` pins `all` byte for byte.
  */
object Report {

  def t1: String =
    Tables.render("T1 — model configurations (paper Table 1)",
      Seq("model", "layers", "heads", "hidden", "type"),
      ModelConfigs.all.map(m => Seq(m.name, m.layers.toString, m.heads.toString, m.hidden.toString,
        if (m.isMoE) s"top${m.topK}/${m.numExperts}" else "dense")))

  def e1: String = { val r = E1Architecture.run(); E1Architecture.table(r) + "\n" + E1Architecture.summary(r) }
  def e2: String = { val c = E2Orchestration.sweep(); E2Orchestration.table(c) + "\n" + E2Orchestration.summary(c) }
  def e3: String = E3Redundancy.table(E3Redundancy.sweep())
  def e4: String = { val r = E4SourceParallel.sweep(); E4SourceParallel.table(r) + "\n" + E4SourceParallel.summary(r) }
  def e5: String = { val r = E5FaultTolerance.run(); E5FaultTolerance.table(r) + "\n" + E5FaultTolerance.summary(r) }
  def e6: String = E6Ablation.table(E6Ablation.sweep())
  def e7: String = { val r = E7Scalability.run(); E7Scalability.table(r) + "\n" + E7Scalability.summary(r) }

  /** Every section in order, each ended by a newline. */
  def all: String = Seq(t1, e1, e2, e3, e4, e5, e6, e7).map(_ + "\n").mkString
}
