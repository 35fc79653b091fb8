package repro.core

import repro.mi.CorrelationGraph

/** Approximate HTPGM using mutual information (Algorithm 2).
  *
  * Given the correlation graph over the symbolic series, the miner
  * restricts level 1 to events of correlated series (those in X_C) and
  * level 2 to event pairs whose series are connected; levels ≥ 3 run the
  * exact machinery on the surviving L1/L2. Theorem 1 bounds the confidence
  * of pairs pruned this way from below only for correlated series — the
  * approximation may lose patterns over uncorrelated ones, which is the
  * accuracy/runtime trade-off measured in Table IX.
  */
object AHTPGM {

  /** Mine with a prebuilt correlation graph whose vertex ids are the
    * `SequenceDB.eventSeries` series ids.
    */
  def mine(db: SequenceDB, cfg: MiningConfig, graph: CorrelationGraph): MiningResult =
    HTPGM.mine(db, cfg, Some(filter(graph, db.seriesNames.size, db.eventSeries)))

  /** Algorithm 2's restriction from a correlation graph over `numSeries`
    * series, given each event's series id: level 1 keeps the events of
    * series in X_C, level 2 the pairs of one series (NMI(X;X)=1) or of two
    * connected series.
    */
  def filter(graph: CorrelationGraph, numSeries: Int, eventSeries: Int => Int): HTPGM.ApproxFilter = {
    require(graph.n == numSeries, s"graph has ${graph.n} vertices but db has $numSeries series")
    val inXc = graph.correlatedVertices
    HTPGM.ApproxFilter(
      eventAllowed = e => inXc(eventSeries(e)),
      pairAllowed = (e1, e2) => {
        val s1 = eventSeries(e1); val s2 = eventSeries(e2)
        s1 == s2 || graph.connected(s1, s2)
      })
  }

  /** Accuracy of an approximate result versus the exact one: the fraction
    * of exact frequent patterns that the approximation also reports
    * (Table IX metric).
    */
  def accuracy(exact: MiningResult, approx: MiningResult): Double = {
    if (exact.patterns.isEmpty) 1.0
    else exact.patterns.keysIterator.count(approx.patterns.contains).toDouble / exact.patterns.size
  }
}
