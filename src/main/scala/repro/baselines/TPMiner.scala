package repro.baselines

import scala.collection.mutable
import repro.core._

/** TPMiner baseline (Chen et al., TKDE 2015): level-wise mining over the
  * endpoint representation of event intervals.
  *
  * Characteristics reproduced (vs HTPGM):
  *  - each sequence is converted to its *endpoint sequence* (sorted starts
  *    and ends), kept for the whole run; the per-event instance index is
  *    read off it, and extensions are decided and their relations
  *    classified by the shared [[Relation.extend]] kernel;
  *  - Apriori candidate filtering by *support only*, using per-event
  *    sequence-ID set intersections (hash sets, no bitmaps);
  *  - no confidence pruning and no transitivity pruning; confidence is a
  *    post-filter.
  *
  * Output pattern set is identical to E-HTPGM's (asserted in tests).
  */
object TPMiner {

  /** Endpoint of an instance: (time, isEnd, instance). Sorting these gives
    * the endpoint sequence of Chen et al.
    */
  private final case class Endpoint(time: Long, isEnd: Boolean, inst: Instance)

  def mine(db: SequenceDB, cfg: MiningConfig): MiningResult = {
    val t0 = System.nanoTime()
    val n = db.size
    val minSupp = cfg.minSupp(n)
    var structureBytes = 0L
    var candidatePatterns = 0L
    var candidateNodes = 0L
    var prunedNodes = 0L
    var maxLevel = 1

    // Endpoint sequences (the TPMiner representation); kept for the whole run.
    val endpoints: Array[Array[Endpoint]] = db.sequences.map { s =>
      s.instances.flatMap(i => Array(Endpoint(i.start, isEnd = false, i),
                                     Endpoint(i.end, isEnd = true, i)))
        .sortBy(e => (e.time, e.isEnd))
    }.toArray
    structureBytes += endpoints.iterator.map(_.length.toLong * 40L).sum

    // Per-event sequence-ID hash sets (TPMiner's vertical lists).
    val seqSets: Map[Int, Set[Int]] =
      (0 until db.numEvents).map(e => e ->
        db.sequences.filter(_.instances.exists(_.event == e)).map(_.id).toSet).toMap
    structureBytes += seqSets.valuesIterator.map(_.size.toLong * 16L).sum
    val eventSupp = seqSets.view.mapValues(_.size).toMap
    val freq1 = (0 until db.numEvents).filter(eventSupp(_) >= minSupp).toVector

    // Start-ordered instances per (sequence, event) derived from endpoints.
    val instIndex: Array[Map[Int, Array[Instance]]] = endpoints.map { eps =>
      eps.filter(!_.isEnd).map(_.inst).groupBy(_.event)
        .view.mapValues(_.sorted(Instance.chrono)).toMap
    }

    val nodeCache = mutable.HashMap.empty[Vector[Int], Boolean]
    def nodeFrequent(events: Vector[Int]): Boolean =
      nodeCache.getOrElseUpdate(events, {
        candidateNodes += 1
        val ok = events.map(seqSets).reduce(_ intersect _).size >= minSupp
        if (!ok) prunedNodes += 1
        ok
      })

    val results = mutable.HashMap.empty[Pattern, Int]
    // Level-wise loop: occurrences stored per pattern; support-only filtering.
    var prev: Vector[(Pattern, mutable.HashMap[Int, mutable.ArrayBuffer[Array[Instance]]])] =
      freq1.map { e =>
        val bySeq = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Array[Instance]]]
        for (seq <- seqSets(e); inst <- instIndex(seq).getOrElse(e, Array.empty[Instance]))
          bySeq.getOrElseUpdate(seq, mutable.ArrayBuffer.empty) += Array(inst)
        (Pattern(Vector(e), Vector.empty), bySeq)
      }

    var level = 1
    var peakCandidateBytes = 0L
    while (prev.nonEmpty && level < cfg.maxLevel) {
      level += 1
      var levelCandidateBytes = 0L
      val counts = mutable.HashMap.empty[Pattern, mutable.HashMap[Int, mutable.ArrayBuffer[Array[Instance]]]]
      val byNode = prev.groupBy(_._1.events.sorted)
      for ((nodeEv, pats) <- byNode; eK <- freq1 if nodeFrequent((nodeEv :+ eK).sorted)) {
        for ((p, occBySeq) <- pats;
             (seq, occs) <- occBySeq; exts <- instIndex(seq).get(eK); occ <- occs; inst <- exts) {
          val rels = Relation.extend(occ, eK, inst.start, inst.end, cfg)
          if (rels != null) {
            candidatePatterns += 1
            val np = p.extended(eK, rels.toIndexedSeq)
            counts.getOrElseUpdate(np, mutable.HashMap.empty)
              .getOrElseUpdate(seq, mutable.ArrayBuffer.empty) += (occ :+ inst)
            levelCandidateBytes += 56L + 8L * level
          }
        }
      }
      peakCandidateBytes = math.max(peakCandidateBytes, levelCandidateBytes)
      val kept = counts.filter(_._2.size >= minSupp)
      for ((p, bySeq) <- kept) {
        results(p) = bySeq.size
        structureBytes += bySeq.valuesIterator.map(_.length.toLong).sum * (56L + 8L * level)
      }
      prev = kept.toVector
      if (prev.nonEmpty) maxLevel = level
    }

    structureBytes += peakCandidateBytes
    val stats = MiningStats((System.nanoTime() - t0) / 1000000L, structureBytes,
      candidateNodes, prunedNodes, candidatePatterns, maxLevel)
    MiningResult(results.toMap, eventSupp.filter(_._2 >= minSupp), n, stats)
      .confidentOnly(cfg.delta)
  }
}
