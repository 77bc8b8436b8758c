package stepbench

import java.io.PrintWriter
import scala.collection.mutable.ArrayBuffer

/** One timed call: `parent` is the id of the span that was open when this
  * one started, or -1 for a root span. Spans of one step share `step`.
  */
final case class Span(id: Int, name: String, step: Int, parent: Int, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder. The benchmark wraps each public call into a
  * layer with `span`; nothing inside the program is instrumented. With
  * `on` false a span is just the call, so untraced steps pay nothing.
  */
final class Tracer {
  var on = false
  private val spans  = ArrayBuffer.empty[Span]
  private val extras = ArrayBuffer.empty[String]
  private var open: List[Int] = Nil

  def span[A](name: String, step: Int)(body: => A): A =
    if (!on) body
    else {
      val id = spans.size
      spans += null // reserve the id; filled in when the call returns
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans(id) = Span(id, name, step, parent, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** An extra JSON object written after the spans (e.g. Spark counters). */
  def record(json: String): Unit = extras += json

  def all: Vector[Span] = spans.toVector

  def children(s: Span): Vector[Span] = all.filter(_.parent == s.id)

  /** Seconds of `s` that no child span covers. */
  def selfSeconds(s: Span): Double = s.seconds - Tracer.covered(children(s))

  /** Share of `s` that its child spans cover. */
  def coverage(s: Span): Double =
    if (s.endNs == s.startNs) 1.0 else Tracer.covered(children(s)) / s.seconds

  def writeJsonLines(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val out = new PrintWriter(path.toFile, "UTF-8")
    try {
      all.foreach { s =>
        out.println(Json.obj("name" -> Json.str(s.name), "id" -> s.id.toString,
          "step" -> s.step.toString, "parent" -> s.parent.toString,
          "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString))
      }
      extras.foreach(out.println)
    } finally out.close()
  }
}

object Tracer {
  /** Seconds covered by the union of the spans' intervals. */
  def covered(spans: Seq[Span]): Double = {
    var total = 0L
    var end   = Long.MinValue
    spans.sortBy(_.startNs).foreach { s =>
      val from = math.max(s.startNs, end)
      if (s.endNs > from) { total += s.endNs - from; end = s.endNs }
    }
    total / 1e9
  }
}

/** Just enough JSON writing for flat result records. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not a finite number")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString else d.toString
  }

  /** Fields are already-encoded JSON values. */
  def obj(fields: (String, String)*): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
