package org.apache.spark

import org.apache.spark.scheduler.SparkListener

/** Scoped listening to Spark's events. The listener bus delivers events
  * asynchronously and its drain call is package-private, so this lives in
  * Spark's package.
  */
object SparkEvents {

  /** Runs `body` with `listener` registered; it has seen every event that
    * `body` caused when this returns.
    */
  def listening[A](sc: SparkContext, listener: SparkListener)(body: => A): A = {
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val a = body
      sc.listenerBus.waitUntilEmpty()
      a
    } finally sc.removeSparkListener(listener)
  }
}
