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
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val a = body
      sc.listenerBus.waitUntilEmpty()
      (a, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}
