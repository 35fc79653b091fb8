package perfbench

/** Minimal JSON rendering for the result line and the trace file. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }

  def value(v: Any): String = v match {
    case s: String  => str(s)
    case b: Boolean => b.toString
    case d: Double  => require(!d.isNaN && !d.isInfinite, s"non-finite value $d"); d.toString
    case n: Int     => n.toString
    case n: Long    => n.toString
    case raw: Raw   => raw.json
    case other      => throw new IllegalArgumentException(s"cannot render $other")
  }

  /** Already-rendered JSON. */
  final case class Raw(json: String)

  def obj(fields: (String, Any)*): Raw =
    Raw(fields.map { case (k, v) => s"${str(k)}: ${value(v)}" }.mkString("{", ", ", "}"))

  def arr(items: Seq[Any]): String = items.map(value).mkString("[", ",\n", "]")
}
