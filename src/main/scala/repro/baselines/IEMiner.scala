package repro.baselines

import scala.collection.mutable
import repro.core._

/** IEMiner baseline (Patel et al., SIGMOD 2008): Apriori level-wise mining
  * over a hierarchical lossless representation.
  *
  * Characteristics reproduced (vs HTPGM):
  *  - no stored occurrences between levels: at level k the database is
  *    *re-scanned* and occurrences of the frequent (k−1)-patterns are
  *    re-derived per sequence from scratch (the repeated-scan cost that
  *    makes IEMiner slower than TPMiner but its Apriori filter faster than
  *    H-DFS);
  *  - Apriori candidate filtering by support only (sequence-ID hash sets);
  *  - no confidence pruning; confidence is a post-filter.
  *
  * Output pattern set is identical to E-HTPGM's (asserted in tests).
  */
object IEMiner {

  def mine(db: SequenceDB, cfg: MiningConfig): MiningResult = {
    val t0 = System.nanoTime()
    val n = db.size
    val minSupp = cfg.minSupp(n)
    var structureBytes = 0L
    var candidatePatterns = 0L
    var candidateNodes = 0L
    var prunedNodes = 0L

    val seqSets: Map[Int, Set[Int]] =
      (0 until db.numEvents).map(e => e ->
        db.sequences.filter(_.instances.exists(_.event == e)).map(_.id).toSet).toMap
    val eventSupp = seqSets.view.mapValues(_.size).toMap
    val freq1 = (0 until db.numEvents).filter(eventSupp(_) >= minSupp).toVector
    val freq1Set = freq1.toSet

    val instIndex: Array[Map[Int, Array[Instance]]] =
      db.sequences.map(_.byEvent.filter { case (e, _) => freq1Set(e) }).toArray

    val nodeCache = mutable.HashMap.empty[Vector[Int], Boolean]
    def nodeFrequent(events: Vector[Int]): Boolean =
      nodeCache.getOrElseUpdate(events, {
        candidateNodes += 1
        val ok = events.map(seqSets).reduce(_ intersect _).size >= minSupp
        if (!ok) prunedNodes += 1
        ok
      })

    /** Extend one sequence's occurrences of (l−1)-patterns by one instance,
      * keeping only extensions whose pattern survives `keep` (or all, when
      * `keep` is None — the counting level).
      */
    def extendInSeq(seq: Int,
                    occs: Iterable[(Pattern, Array[Instance])],
                    keep: Option[Pattern => Boolean]):
        mutable.ArrayBuffer[(Pattern, Array[Instance])] = {
      val out = mutable.ArrayBuffer.empty[(Pattern, Array[Instance])]
      for ((p, occ) <- occs; eK <- freq1 if nodeFrequent((p.events :+ eK).sorted);
           exts <- instIndex(seq).get(eK); inst <- exts) {
        val rels = Relation.extend(occ, eK, inst.start, inst.end, cfg)
        if (rels != null) {
          val np = p.extended(eK, rels.toIndexedSeq)
          if (keep.forall(_(np))) out += ((np, occ :+ inst))
        }
      }
      out
    }

    val results = mutable.HashMap.empty[Pattern, Int]
    var frequentAt: Vector[Set[Pattern]] = Vector(freq1.map(e => Pattern(Vector(e), Vector.empty)).toSet)
    var level = 1
    var continue = true
    while (continue && level < cfg.maxLevel) {
      level += 1
      // Count level-k candidates with a full database re-scan: per sequence,
      // re-derive occurrences of the frequent patterns of every lower level.
      val support = mutable.HashMap.empty[Pattern, mutable.HashSet[Int]]
      var levelCandidateBytes = 0L
      for (s <- db.sequences) {
        var occs: Iterable[(Pattern, Array[Instance])] =
          for (e <- freq1; inst <- instIndex(s.id).getOrElse(e, Array.empty[Instance]))
            yield (Pattern(Vector(e), Vector.empty), Array(inst))
        for (l <- 2 until level)
          occs = extendInSeq(s.id, occs, Some(frequentAt(l - 1)))
        val top = extendInSeq(s.id, occs, None)
        candidatePatterns += top.size
        levelCandidateBytes += top.size * (56L + 8L * level)
        for ((p, _) <- top) support.getOrElseUpdate(p, mutable.HashSet.empty) += s.id
      }
      structureBytes += levelCandidateBytes
      structureBytes += support.iterator.map { case (p, ss) => 48L + 12L * p.size + 16L * ss.size }.sum
      val kept = support.collect { case (p, ss) if ss.size >= minSupp => p -> ss.size }
      results ++= kept
      frequentAt = frequentAt :+ kept.keySet.toSet
      continue = kept.nonEmpty
    }

    val stats = MiningStats((System.nanoTime() - t0) / 1000000L, structureBytes,
      candidateNodes, prunedNodes, candidatePatterns,
      maxLevelReached = frequentAt.count(_.nonEmpty))
    MiningResult(results.toMap, eventSupp.filter(_._2 >= minSupp), n, stats)
      .confidentOnly(cfg.delta)
  }
}
