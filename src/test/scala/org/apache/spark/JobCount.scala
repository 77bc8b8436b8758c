package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block of code starts. The listener bus delivers
  * events asynchronously and its drain call is package-private, so this
  * test helper lives in Spark's package.
  */
object JobCount {
  def of[A](sc: SparkContext)(body: => A): (A, Int) = {
    val jobs = new AtomicInteger
    val a = listening(sc, new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    })(body)
    (a, jobs.get)
  }

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
