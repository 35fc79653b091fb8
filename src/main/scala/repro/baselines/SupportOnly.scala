package repro.baselines

import scala.collection.mutable
import repro.core._
import repro.core.HTPGM.{Counts, Step}

/** What the three baselines share and E-HTPGM does not: per-event
  * sequence-ID hash sets instead of bitmaps, an Apriori node test by
  * support alone, and confidence applied only to the final result.
  * Construct one per run; the run's clock starts here.
  */
private[baselines] final class SupportOnly(db: SequenceDB, cfg: MiningConfig) {
  private val t0 = System.nanoTime()
  val minSupp: Int = cfg.minSupp(db.size)

  /** Event id → ids of the sequences it occurs in. */
  val seqSets: IndexedSeq[Set[Int]] = {
    val ids = db.sequences.flatMap(s => s.byEvent.keys.map(_ -> s.id)).groupMap(_._1)(_._2)
    (0 until db.numEvents).map(e => ids.getOrElse(e, Nil).toSet)
  }
  val freq1: Vector[Int] = (0 until db.numEvents).filter(seqSets(_).size >= minSupp).toVector

  val results = mutable.HashMap.empty[Pattern, Int]
  var candidatePatterns = 0L
  private var candidateNodes = 0L
  private var prunedNodes = 0L
  private val nodeCache = mutable.HashMap.empty[Vector[Int], Boolean]

  /** Is the sorted event multiset in at least `minSupp` sequences? Each
    * multiset is tested once.
    */
  private def nodeFrequent(events: Vector[Int]): Boolean =
    nodeCache.getOrElseUpdate(events, {
      candidateNodes += 1
      val ok = events.map(seqSets).reduce(_ intersect _).size >= minSupp
      if (!ok) prunedNodes += 1
      ok
    })

  /** Levels 2, 3, …: `extend` turns each level's [[Step]] (every kept
    * pattern with the frequent events whose node passes) into that level's
    * counts, and `seen` observes them. Patterns in at least `minSupp`
    * sequences are reported and kept, until none is left or `cfg.maxLevel`.
    * Returns the last level that kept a pattern.
    */
  def levels(extend: Step => Counts)(seen: (Int, Counts) => Unit): Int = {
    var kept: Iterable[Pattern] = freq1.map(e => Pattern(Vector(e), Vector.empty))
    var k = 1
    var top = 1
    while (kept.nonEmpty && k < cfg.maxLevel) {
      k += 1
      val ext = kept.groupBy(_.events.sorted).flatMap { case (node, ps) =>
        val exts = freq1.filter(e => nodeFrequent((node :+ e).sorted)).toArray
        ps.map(_ -> exts)
      }
      val counts = extend(Step(ext, None, db.numEvents, cfg))
      candidatePatterns += counts.candidates
      seen(k, counts)
      val frequent = counts.support.collect { case (p, (n, _)) if n >= minSupp => p -> n }
      results ++= frequent
      kept = frequent.keys
      if (kept.nonEmpty) top = k
    }
    top
  }

  /** The run's result: the frequent patterns that reach `cfg.delta`. */
  def result(structureBytes: Long, maxLevelReached: Int): MiningResult = {
    val stats = MiningStats((System.nanoTime() - t0) / 1000000L, structureBytes,
      candidateNodes, prunedNodes, candidatePatterns, maxLevelReached)
    val eventSupport = freq1.map(e => e -> seqSets(e).size).toMap
    MiningResult(results.toMap, eventSupport, db.size, stats).confidentOnly(cfg.delta)
  }
}
