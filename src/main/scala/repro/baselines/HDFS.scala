package repro.baselines

import scala.collection.mutable
import repro.core._

/** H-DFS baseline (Papapetrou et al., KAIS 2009): hybrid BFS/DFS mining of
  * frequent arrangements using ID-Lists.
  *
  * Characteristics reproduced (vs HTPGM):
  *  - per-pattern *ID-Lists* — `(sequence, occurrence)` vertical lists —
  *    merged pairwise during depth-first extension; no bitmaps;
  *  - no Apriori event-combination filtering (every frequent single event
  *    is tried as an extension of every frequent pattern);
  *  - no confidence-based pruning: patterns are mined by support only and
  *    the confidence threshold is applied as a post-filter;
  *  - extension candidates are found by scanning each sequence's full
  *    instance list (no per-event index).
  *
  * The search is its own, not E-HTPGM's level loop, and stops at
  * `cfg.maxLevel`. The output pattern set is identical to E-HTPGM's
  * (asserted in tests); only the work and retained state differ.
  */
object HDFS {

  def mine(db: SequenceDB, cfg: MiningConfig): MiningResult = {
    val t0 = System.nanoTime()
    val minSupp = cfg.minSupp(db.size)
    val eventSupport = db.sequences.flatMap(_.slices.events).groupMapReduce(identity)(_ => 1)(_ + _)
      .filter(_._2 >= minSupp)
    val freq1 = eventSupport.keys.toVector.sorted
    val results = mutable.HashMap.empty[Pattern, Int]
    var candidatePatterns = 0L
    var structureBytes = 0L
    var maxLevel = 1

    // ID-list: seq -> occurrences, each the indices of its instances in the
    // sequence's EventSlices.
    type IdList = mutable.LinkedHashMap[Int, mutable.ArrayBuffer[Array[Int]]]

    def extend(p: Pattern, ids: IdList): Unit = {
      val rels = new Array[Byte](p.size)
      for (eK <- freq1) {
        val newLists = mutable.HashMap.empty[Pattern, IdList]
        for ((seq, occs) <- ids) {
          val s = db.sequences(seq).slices // linear scan, no per-event index
          for (occ <- occs) {
            var x = 0
            while (x < s.size) {
              if (s.event(x) == eK && Relation.extend(s, occ, 0, occ.length, x, cfg, rels)) {
                candidatePatterns += 1
                structureBytes += MiningStats.occurrenceBytes(occ.length + 1) // materialized ID-list entry
                val np = p.extended(eK, rels.toIndexedSeq)
                newLists.getOrElseUpdate(np, mutable.LinkedHashMap.empty)
                  .getOrElseUpdate(seq, mutable.ArrayBuffer.empty) += (occ :+ x)
              }
              x += 1
            }
          }
        }
        for ((np, nids) <- newLists if nids.size >= minSupp) {
          results(np) = nids.size
          maxLevel = math.max(maxLevel, np.size)
          if (np.size < cfg.maxLevel) extend(np, nids) // depth-first
        }
      }
    }

    for (e <- freq1) {
      val ids: IdList = mutable.LinkedHashMap.empty
      for (s <- db.sequences; x <- 0 until s.slices.size if s.slices.event(x) == e)
        ids.getOrElseUpdate(s.id, mutable.ArrayBuffer.empty) += Array(x)
      structureBytes += ids.valuesIterator.map(_.length.toLong).sum * MiningStats.occurrenceBytes(1)
      extend(Pattern(Vector(e), Vector.empty), ids)
    }
    val stats = MiningStats((System.nanoTime() - t0) / 1000000L, structureBytes, 0L, 0L, candidatePatterns, maxLevel)
    MiningResult(results.toMap, eventSupport, db.size, stats, db.eventNames).confidentOnly(cfg.delta)
  }
}
