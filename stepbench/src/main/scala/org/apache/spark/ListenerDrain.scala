package org.apache.spark

/** The listener bus delivers task-end events asynchronously; its drain
  * call is package-private, so the benchmark reaches it from here.
  */
object ListenerDrain {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
