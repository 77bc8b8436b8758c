package jobs

import repro.exp.Report

/** One spark-submit entrypoint per reproduced table (DESIGN.md Sec. 4).
  * Each prints the table rows plus the paper-vs-measured summary that
  * EXPERIMENTS.md records. E1's Spark read-amplification microbenchmark
  * lives in the bench suite (it needs a SparkSession); all other tables
  * are driver-side and run anywhere.
  */
object T1ModelConfigsJob   { def main(args: Array[String]): Unit = println(Report.t1) }
object E1ArchitectureJob   { def main(args: Array[String]): Unit = println(Report.e1) }
object E2OrchestrationJob  { def main(args: Array[String]): Unit = println(Report.e2) }
object E3RedundancyJob     { def main(args: Array[String]): Unit = println(Report.e3) }
object E4SourceParallelJob { def main(args: Array[String]): Unit = println(Report.e4) }
object E5FaultToleranceJob { def main(args: Array[String]): Unit = println(Report.e5) }
object E6AblationJob       { def main(args: Array[String]): Unit = println(Report.e6) }
object E7ScalabilityJob    { def main(args: Array[String]): Unit = println(Report.e7) }

/** Runs every driver-side table in sequence. */
object RunAll {
  def main(args: Array[String]): Unit = print(Report.all)
}
