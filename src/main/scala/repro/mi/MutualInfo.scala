package repro.mi

/** A symbolic time series (Def 3.2): dictionary-encoded symbols, one per
  * time slot, plus the printable alphabet.
  */
final case class SymbolicSeries(name: String, symbols: Array[Int], alphabet: IndexedSeq[String]) {
  require(symbols.forall(s => s >= 0 && s < alphabet.size), s"symbol out of alphabet in $name")

  /** Occurrences of each symbol, indexed by symbol id (a symbol of the
    * alphabet that never occurs counts 0).
    */
  lazy val counts: Array[Int] = {
    val c = new Array[Int](alphabet.size)
    var t = 0
    while (t < symbols.length) { c(symbols(t)) += 1; t += 1 }
    c
  }
}

/** The symbolic database D_SYB (Def 3.3): aligned symbolic series. */
final case class SymbolicDB(series: IndexedSeq[SymbolicSeries]) {
  require(series.map(_.symbols.length).distinct.size <= 1, "series must be aligned (equal length)")
  def length: Int = series.headOption.map(_.symbols.length).getOrElse(0)
  def indexOf(name: String): Int = series.indexWhere(_.name == name)
}

/** Entropy, mutual information and normalized mutual information over
  * symbolic series (Section V.A), computed on the driver from dense counts:
  * each series' symbol counts once ([[SymbolicSeries.counts]]) and, per
  * pair, one |Σx|·|Σy| joint-count array filled in a single pass over the
  * two aligned symbol arrays.
  */
object MutualInfo {

  private def ln(x: Double): Double = math.log(x) // natural log: matches the paper's worked example I(K;T)=0.29 nats; NMI is base-invariant

  /** Shannon entropy H(X) of a symbolic series (Eq. 7), in nats. */
  def entropy(x: SymbolicSeries): Double = {
    val n = x.symbols.length.toDouble
    var h = 0.0
    for (c <- x.counts if c > 0) { val p = c / n; h -= p * ln(p) }
    h
  }

  /** Mutual information I(X;Y) (Eq. 9), in nats. Series must be aligned. */
  def mi(x: SymbolicSeries, y: SymbolicSeries): Double = {
    require(x.symbols.length == y.symbols.length, "series must be aligned")
    val n = x.symbols.length.toDouble
    val ny = y.alphabet.size
    val joint = new Array[Int](x.alphabet.size * ny)
    val xs = x.symbols; val ys = y.symbols
    var t = 0
    while (t < xs.length) { joint(xs(t) * ny + ys(t)) += 1; t += 1 }
    val cx = x.counts; val cy = y.counts
    var i = 0.0
    var cell = 0
    while (cell < joint.length) {
      val c = joint(cell)
      if (c > 0) {
        val pxy = c / n
        i += pxy * ln(pxy / ((cx(cell / ny) / n) * (cy(cell % ny) / n)))
      }
      cell += 1
    }
    i
  }

  /** Normalized MI Ĩ(X;Y) = I(X;Y)/H(X) (Eq. 10). Not symmetric. A series
    * with zero entropy (constant) shares no information: returns 0.
    */
  def nmi(x: SymbolicSeries, y: SymbolicSeries): Double = {
    val h = entropy(x)
    if (h == 0.0) 0.0 else mi(x, y) / h
  }

  /** Symmetric pair score min(Ĩ(X;Y), Ĩ(Y;X)) — an edge of the correlation
    * graph (Def 5.5) exists iff this score ≥ μ.
    */
  def pairScore(x: SymbolicSeries, y: SymbolicSeries): Double =
    math.min(nmi(x, y), nmi(y, x))
}
