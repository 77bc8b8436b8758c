package repro.exp

/** Plain-text table rendering for the experiment harnesses: every bench
  * prints the same rows the paper's figure/table reports, with the
  * paper's reference numbers alongside where they are quoted in the text.
  */
object Tables {

  def render(title: String, headers: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = headers +: rows
    val widths = headers.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(headers) +: sep +: rows.map(line)).mkString("\n")
  }

  def f1(x: Double): String = f"$x%.1f"
  def f2(x: Double): String = f"$x%.2f"
  def f3(x: Double): String = f"$x%.3f"
  def sci(x: Double): String = f"$x%.3g"
}
