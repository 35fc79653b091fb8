package repro.mi

/** Undirected correlation graph over symbolic series (Def 5.5): an edge
  * (i,j) exists iff Ĩ(Xi;Xj) ≥ μ AND Ĩ(Xj;Xi) ≥ μ.
  *
  * @param n   number of series (vertices)
  * @param adj symmetric adjacency matrix, `adj(i)(j)` iff edge (i,j)
  */
final case class CorrelationGraph(n: Int, adj: Array[Array[Boolean]]) {
  require(adj.length == n && adj.forall(_.length == n), "adjacency must be n×n")

  def connected(i: Int, j: Int): Boolean = adj(i)(j)

  def edgeCount: Int = (for (i <- 0 until n; j <- i + 1 until n if adj(i)(j)) yield 1).sum

  /** Density d_C w.r.t. the complete graph (Def 5.6). */
  def density: Double = if (n < 2) 0.0 else edgeCount.toDouble / (n * (n - 1) / 2)

  /** Series in X_C: vertices with at least one incident edge. */
  def correlatedVertices: Set[Int] =
    (0 until n).filter(i => (0 until n).exists(j => j != i && adj(i)(j))).toSet
}

object CorrelationGraph {

  /** Min-NMI score for every unordered pair of series in `db`. */
  def pairScores(db: SymbolicDB): Map[(Int, Int), Double] =
    (for {
      i <- db.series.indices
      j <- (i + 1) until db.series.size
    } yield (i, j) -> MutualInfo.pairScore(db.series(i), db.series(j))).toMap

  /** Build the graph for an explicit MI threshold μ (Algorithm 2, lines 2–6). */
  def build(db: SymbolicDB, mu: Double): CorrelationGraph =
    fromScores(db.series.size, pairScores(db), mu)

  def fromScores(n: Int, scores: Map[(Int, Int), Double], mu: Double): CorrelationGraph = {
    val adj = Array.fill(n, n)(false)
    for (((i, j), s) <- scores if s >= mu) { adj(i)(j) = true; adj(j)(i) = true }
    CorrelationGraph(n, adj)
  }

  /** Choose μ so that the correlation graph keeps (approximately) the given
    * fraction of the complete graph's edges (Def 5.6 "setting the value of
    * μ"): μ is the score of the ⌈density·|pairs|⌉-th best pair, so exactly
    * that many edges survive (modulo score ties).
    */
  def muForDensity(scores: Map[(Int, Int), Double], density: Double): Double = {
    require(density > 0 && density <= 1, s"density must be in (0,1]: $density")
    val sorted = scores.values.toIndexedSeq.sortBy(-_)
    if (sorted.isEmpty) 0.0
    else {
      val keep = math.max(1, math.ceil(density * sorted.size - 1e-9).toInt)
      sorted(math.min(keep, sorted.size) - 1)
    }
  }
}
