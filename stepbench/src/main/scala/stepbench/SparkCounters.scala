package stepbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable

/** Task metrics of every job run under one job group. */
final class LayerCount {
  var jobs, tasks, rowsRead, bytesRead, shuffleWrite, shuffleRead = 0L
  var runMs, cpuNs = 0L
}

/** Measures what Spark did for each layer call from outside the program:
  * the benchmark sets a job group per (layer, step) around the call, and
  * this listener sums the finished tasks' metrics by group.
  */
final class SparkCounters extends SparkListener {
  private val byGroup    = mutable.HashMap.empty[String, LayerCount]
  private val stageGroup = mutable.HashMap.empty[Int, String]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(SparkCounters.GroupKey))).foreach { g =>
      byGroup.getOrElseUpdate(g, new LayerCount).jobs += 1
      e.stageIds.foreach(stageGroup(_) = g)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (g <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val c = byGroup.getOrElseUpdate(g, new LayerCount)
      c.tasks += 1
      c.rowsRead += m.inputMetrics.recordsRead
      c.bytesRead += m.inputMetrics.bytesRead
      c.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      c.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      c.runMs += m.executorRunTime
      c.cpuNs += m.executorCpuTime
    }
  }

  /** Runs `body` with every Spark job it starts tagged as (layer, step). */
  def tagged[A](sc: SparkContext, layer: String, step: Int)(body: => A): A = {
    sc.setJobGroup(SparkCounters.group(layer, step), layer)
    try body finally sc.clearJobGroup()
  }

  /** Counts for (layer, step), after every queued event was delivered. */
  def get(sc: SparkContext, layer: String, step: Int): LayerCount = {
    org.apache.spark.ListenerDrain.drain(sc)
    synchronized(byGroup.getOrElse(SparkCounters.group(layer, step), new LayerCount))
  }
}

object SparkCounters {
  val GroupKey = "spark.jobGroup.id"
  def group(layer: String, step: Int): String = s"$layer#$step"
}
