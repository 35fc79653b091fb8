package repro.core

/** A single occurrence of a temporal event: `(event, [start, end])`
  * (Def 3.5). Events are dictionary-encoded ints (`SequenceDB.eventNames`).
  */
final case class Instance(event: Int, start: Long, end: Long) {
  require(end >= start, s"instance with end < start: $this")
}

object Instance {
  /** Chronological order with deterministic tie-break (DESIGN.md §3). */
  implicit val chrono: Ordering[Instance] =
    Ordering.by((i: Instance) => (i.start, i.end, i.event))
}

/** One row of the temporal sequence database D_SEQ (Def 3.10): instances
  * sorted chronologically.
  */
final case class TemporalSequence(id: Int, instances: Array[Instance]) {
  /** The instances as per-event slices, sorted once (see [[EventSlices]]). */
  lazy val slices: EventSlices = EventSlices(instances)
}

/** A sequence's instances sorted by (event, chrono) into flat columns, so
  * that each event's instances form one contiguous, chronological slice.
  * The miners name an instance by its index in these columns.
  *
  * @param events the sequence's distinct events, ascending; the instances
  *               of `events(i)` are `from(i) until until(i)`
  */
final class EventSlices private (val event: Array[Int], val start: Array[Long], val end: Array[Long],
                                 val events: Array[Int], bounds: Array[Int]) extends Serializable {
  def size: Int = event.length

  /** Position of event `e` in [[events]], or −1 if the sequence lacks it. */
  def indexOf(e: Int): Int = math.max(-1, java.util.Arrays.binarySearch(events, e))

  def from(i: Int): Int = bounds(i)
  def until(i: Int): Int = bounds(i + 1)
}

object EventSlices {
  private val byEventChrono: Ordering[Instance] = (a, b) =>
    if (a.event != b.event) Integer.compare(a.event, b.event)
    else if (a.start != b.start) java.lang.Long.compare(a.start, b.start)
    else java.lang.Long.compare(a.end, b.end)

  def apply(instances: Array[Instance]): EventSlices = {
    val sorted = instances.sorted(byEventChrono)
    val event = sorted.map(_.event)
    val bounds = (0 to event.length).filter(i => i == 0 || i == event.length || event(i) != event(i - 1)).toArray
    new EventSlices(event, sorted.map(_.start), sorted.map(_.end), bounds.init.map(event), bounds)
  }
}

/** The temporal sequence database plus the event/series dictionaries.
  *
  * @param sequences   rows of D_SEQ, `sequences(i).id == i`
  * @param eventNames  event id → printable name, e.g. `"K=On"`
  * @param eventSeries event id → series id (used by A-HTPGM's graph filter)
  * @param seriesNames series id → series name, e.g. `"K"`
  */
final case class SequenceDB(
    sequences: IndexedSeq[TemporalSequence],
    eventNames: IndexedSeq[String],
    eventSeries: IndexedSeq[Int],
    seriesNames: IndexedSeq[String]) {

  def size: Int = sequences.size
  def numEvents: Int = eventNames.size

  /** The per-event presence bitmaps of level 1 (Section IV.C–D), built in
    * one D_SEQ scan: see [[SequenceDB.eventBitmaps]].
    */
  def eventBitmaps: IndexedSeq[java.util.BitSet] =
    SequenceDB.eventBitmaps(numEvents, sequences.map(_.instances.map(_.event)))

  /** Average number of event instances per sequence (Table IV row). */
  def avgInstancesPerSequence: Double =
    if (sequences.isEmpty) 0.0
    else sequences.map(_.instances.length.toLong).sum.toDouble / sequences.size
}

object SequenceDB {
  /** One presence bitmap per event over `present.size` sequences, where
    * `present(i)` holds the events of sequence `i`: bit `i` of event `e`'s
    * set is on iff `e` occurs in sequence `i`, so an AND and a popcount give
    * joint support (Algorithm 1 line 8).
    */
  def eventBitmaps(numEvents: Int, present: IndexedSeq[Array[Int]]): IndexedSeq[java.util.BitSet] = {
    val sets = Vector.fill(numEvents)(new java.util.BitSet(present.size))
    for (i <- present.indices; e <- present(i)) sets(e).set(i)
    sets
  }
}

/** A temporal pattern (Def 3.11): `events` in chronological order of the
  * supporting instances, and the flattened strictly-upper-triangular
  * relation matrix `rels`, laid out column-major:
  * for `j` in `1 until k`, for `i` in `0 until j`: `rels(j*(j-1)/2 + i) = r(i,j)`.
  * A k-event pattern has `k*(k-1)/2` relations (the paper's triple list).
  */
final case class Pattern(events: Vector[Int], rels: Vector[Byte]) {
  require(rels.length == events.length * (events.length - 1) / 2,
    s"pattern with ${events.length} events needs ${events.length * (events.length - 1) / 2} relations, got ${rels.length}")

  def size: Int = events.length

  def rel(i: Int, j: Int): Byte = { require(i < j); rels(j * (j - 1) / 2 + i) }

  /** The paper's triple list `<(E_i, r_ij, E_j), ...>`. */
  def triples: Seq[(Int, Byte, Int)] =
    for (j <- 1 until size; i <- 0 until j) yield (events(i), rel(i, j), events(j))

  /** Extend with a chronologically-last event and its relations to each
    * existing event (in order i = 0..k-1).
    */
  def extended(event: Int, newRels: IndexedSeq[Byte]): Pattern = {
    require(newRels.length == size, "need one relation per existing event")
    Pattern(events :+ event, rels ++ newRels)
  }

  /** Flat int encoding [e0, e1, r01, e2, r02, r12, ...]: a stable key for
    * sorting patterns ([[MiningResult.ranked]]) and for digests of results.
    */
  def encode: Array[Int] = {
    val out = new Array[Int](size + rels.length)
    var n = 0; var j = 0
    while (j < size) {
      out(n) = events(j); n += 1
      var i = 0
      while (i < j) { out(n) = rels(j * (j - 1) / 2 + i).toInt; n += 1; i += 1 }
      j += 1
    }
    out
  }

  def render(eventNames: Int => String): String =
    if (size == 2) s"(${eventNames(events(0))} ${Relation.glyph(rel(0, 1))} ${eventNames(events(1))})"
    else triples.map { case (a, r, b) => s"(${eventNames(a)} ${Relation.glyph(r)} ${eventNames(b)})" }.mkString("<", ", ", ">")
}

object Pattern {
  def pair(e1: Int, r: Byte, e2: Int): Pattern = Pattern(Vector(e1, e2), Vector(r))
}

/** Mining parameters shared by every miner in the repo.
  *
  * @param sigma  relative support threshold σ in (0,1]
  * @param delta  confidence threshold δ in (0,1]
  * @param eps    relation buffer ε (Defs 3.6–3.8)
  * @param dO     minimal Overlap duration d_o
  * @param tMax   maximal pattern duration (Section III.C constraint)
  * @param pruneApriori enable Lemmas 2–3 node filtering
  * @param pruneTrans   enable Lemmas 4–7 transitivity filtering
  * @param maxLevel safety cap on pattern length (default: unbounded)
  */
final case class MiningConfig(
    sigma: Double,
    delta: Double,
    eps: Long = 0L,
    dO: Long = 1L,
    tMax: Long = Long.MaxValue,
    pruneApriori: Boolean = true,
    pruneTrans: Boolean = true,
    maxLevel: Int = Int.MaxValue) {
  require(sigma > 0 && sigma <= 1, s"sigma must be in (0,1]: $sigma")
  require(delta > 0 && delta <= 1, s"delta must be in (0,1]: $delta")
  require(eps >= 0, s"eps must be >= 0: $eps")
  require(dO > eps, s"require eps << d_o (got eps=$eps, d_o=$dO)")
  require(tMax >= 1, s"tMax must be >= 1: $tMax")
  require(maxLevel >= 2, s"maxLevel must be >= 2: $maxLevel")

  /** Absolute minimum support for a database of `n` sequences. */
  def minSupp(n: Int): Int = math.max(1, math.ceil(sigma * n - 1e-9).toInt)
}

/** Instrumentation counters filled during mining — the substrate for the
  * Table VII (runtime) and Table VIII (memory) reproductions.
  *
  * @param structureBytes deterministic estimate of retained data-structure
  *                       bytes (bitmaps + occurrence stores + candidates)
  */
final case class MiningStats(
    runtimeMillis: Long,
    structureBytes: Long,
    candidateNodes: Long,
    prunedNodes: Long,
    candidatePatterns: Long,
    maxLevelReached: Int) {
  def structureMB: Double = structureBytes / (1024.0 * 1024.0)
}

object MiningStats {
  /** Estimated bytes of one stored occurrence of `k` instances: the
    * occurrence tuple and its map entry, plus one reference per instance.
    */
  def occurrenceBytes(k: Int): Long = 56L + 8L * k
}

/** Output of a miner: frequent (≥ 2-event) patterns with absolute supports,
  * frequent single-event supports, instrumentation, and the names of the
  * mined database's event ids, by which a pattern renders.
  */
final case class MiningResult(
    patterns: Map[Pattern, Int],
    eventSupport: Map[Int, Int],
    dbSize: Int,
    stats: MiningStats,
    eventNames: IndexedSeq[String]) {

  def confidence(p: Pattern, supp: Int): Double = MiningResult.confidence(supp, p.events, eventSupport)

  /** Keep only the patterns whose confidence reaches `delta` — the
    * post-filter of miners that prune by support alone.
    */
  def confidentOnly(delta: Double): MiningResult =
    copy(patterns = patterns.filter { case (p, s) => confidence(p, s) >= delta })

  /** Patterns with relative support and confidence, sorted for display. */
  def ranked: Seq[(Pattern, Double, Double)] =
    patterns.toSeq
      .map { case (p, s) => (p, s.toDouble / dbSize, confidence(p, s)) }
      .sortBy { case (p, s, c) => (-s, -c, p.encode.mkString(",")) }
}

object MiningResult {
  /** Def 3.16: the confidence of the events `events` with joint support
    * `supp` is `supp` over the largest single-event support among them.
    */
  def confidence(supp: Int, events: Vector[Int], eventSupport: Int => Int): Double =
    supp.toDouble / events.iterator.map(eventSupport).max
}
