package repro.core

import scala.collection.mutable

/** Exact Hierarchical Temporal Pattern Graph Mining (Algorithm 1).
  *
  * The miner is level-wise over the Hierarchical Pattern Graph: level 1
  * holds frequent single events (bitmap popcounts), and level k ≥ 2
  * extends the stored occurrences of level k−1 patterns (single instances
  * at level 2) with one chronologically-later instance of the sequences in
  * the joint bitmap. [[Relation.extend]] decides each extension and
  * classifies its relations (DESIGN.md §3 proves this regeneration is
  * complete).
  *
  * Pruning toggles map to the paper's ablation (Fig. 6/7):
  *  - `pruneApriori` — Lemmas 2–3: an event combination (node) is mined
  *    only if its joint-bitmap support ≥ σ and node confidence ≥ δ.
  *  - `pruneTrans` — Lemmas 4–7: (a) only events participating in a
  *    frequent (k−1)-pattern can extend (Lemma 5), (b) every new triple is
  *    looked up in the frequent L2 relation set before the extension is
  *    materialized (iterative verification), (c) only confident patterns
  *    are extended (Lemmas 6–7).
  *
  * All four configurations return identical pattern sets (tested); the
  * toggles change work and retained state, which is what Tables VII/VIII
  * and the pruning ablation measure.
  */
object HTPGM {

  /** A-HTPGM hook (Algorithm 2): restrict level 1 to events of correlated
    * series and level 2 to event pairs whose series are connected in the
    * correlation graph. Same-series pairs are always allowed (NMI(X;X)=1).
    */
  final case class ApproxFilter(eventAllowed: Int => Boolean,
                                pairAllowed: (Int, Int) => Boolean)

  /** Per-sequence occurrence lists of one pattern (or single event). */
  private type OccStore = mutable.HashMap[Pattern, mutable.HashMap[Int, mutable.ArrayBuffer[Array[Instance]]]]

  def mine(db: SequenceDB, cfg: MiningConfig,
           approx: Option[ApproxFilter] = None): MiningResult = {
    val t0 = System.nanoTime()
    val n = db.size
    val minSupp = cfg.minSupp(n)

    var structureBytes = 0L
    var candidateNodes = 0L
    var prunedNodes = 0L
    var candidatePatterns = 0L
    var peakCandidateBytes = 0L

    // ---- Level 1: frequent single events (Section IV.D) ----------------
    val bitmaps = db.eventBitmaps
    structureBytes += bitmaps.valuesIterator.map(_.approxBytes).sum
    val eventSupp: Map[Int, Int] = bitmaps.map { case (e, b) => e -> b.cardinality }
    val freq1: Vector[Int] = (0 until db.numEvents)
      .filter(e => eventSupp(e) >= minSupp)
      .filter(e => approx.forall(_.eventAllowed(e)))
      .toVector
    candidateNodes += db.numEvents

    // Per-sequence, per-event instance index restricted to frequent events.
    val freq1Set = freq1.toSet
    val instIndex: Array[Map[Int, Array[Instance]]] =
      db.sequences.map(s => s.byEvent.filter { case (e, _) => freq1Set(e) }).toArray

    // Level-1 "occurrences": every instance is a 1-tuple.
    var prevOcc: Vector[(Pattern, mutable.HashMap[Int, mutable.ArrayBuffer[Array[Instance]]])] =
      freq1.map { e =>
        val bySeq = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Array[Instance]]]
        for (seq <- bitmaps(e).setBits; inst <- instIndex(seq).getOrElse(e, Array.empty[Instance]))
          bySeq.getOrElseUpdate(seq, mutable.ArrayBuffer.empty) += Array(inst)
        (Pattern(Vector(e), Vector.empty), bySeq)
      }

    // Node-level Apriori cache: sorted event multiset -> (passes, bitmap).
    val nodeCache = mutable.HashMap.empty[Vector[Int], Boolean]
    def nodePasses(eventsSorted: Vector[Int]): Boolean =
      nodeCache.getOrElseUpdate(eventsSorted, {
        candidateNodes += 1
        val bm = eventsSorted.map(bitmaps).reduce(_ and _)
        structureBytes += bm.approxBytes
        val supp = bm.cardinality
        val ok = supp >= minSupp &&
          supp.toDouble / eventsSorted.iterator.map(eventSupp).max >= cfg.delta
        if (!ok) prunedNodes += 1
        ok
      })

    def conf(p: Pattern, supp: Int): Double =
      supp.toDouble / p.events.iterator.map(eventSupp).max

    def occBytes(k: Int): Long = 56L + 8L * k // occurrence tuple + map entry overhead

    // Frequent + confident L2 triples, encoded as a dense boolean table for
    // allocation-free Lemma 5 lookups in the extension hot path.
    val m = db.numEvents
    val freq2 = new Array[Boolean](m * m * 4)
    def encTriple(a: Int, r: Byte, b: Int): Int = (a * m + b) * 4 + r

    val results = mutable.HashMap.empty[Pattern, Int]
    var level = 1
    var maxLevelReached = 1

    while (prevOcc.nonEmpty && level < cfg.maxLevel) {
      level += 1
      val k = level

      // Lemma 5 filtering of the extension alphabet (Trans only; level 2
      // always extends with all of 1Freq — there are no prior patterns).
      val allowedExt: Vector[Int] =
        if (k == 2 || !cfg.pruneTrans) freq1
        else {
          val used = prevOcc.iterator.flatMap(_._1.events).toSet
          freq1.filter(used)
        }

      val counts: OccStore = mutable.HashMap.empty
      var levelCandidateBytes = 0L

      // The Apriori node filter (Lemmas 2-3) depends only on the event
      // multiset, so patterns are grouped by node and each (node, event)
      // pair is checked once — the HPG's node structure, not per-pattern.
      val byNode = prevOcc.groupBy(_._1.events.sorted)
      for ((nodeEv, pats) <- byNode; eK <- allowedExt) {
        // A-HTPGM: at level 2 only graph-connected series pairs are mined.
        val approxOk = k != 2 || approx.forall(_.pairAllowed(nodeEv(0), eK))
        val nodeOk = !cfg.pruneApriori || nodePasses((nodeEv :+ eK).sorted)
        if (approxOk && nodeOk) {
          for ((p, occBySeq) <- pats; (seq, occs) <- occBySeq) {
            val exts = instIndex(seq).getOrElse(eK, null)
            if (exts != null) {
              var oi = 0
              while (oi < occs.length) {
                val occ = occs(oi)
                var xi = 0
                while (xi < exts.length) {
                  val inst = exts(xi)
                  val newRels = Relation.extend(occ, eK, inst.start, inst.end, cfg)
                  // Trans (iterative verification): every new triple must be
                  // a frequent L2 triple.
                  if (newRels != null && (k == 2 || !cfg.pruneTrans ||
                      newRels.indices.forall(i => freq2(encTriple(p.events(i), newRels(i), eK))))) {
                    candidatePatterns += 1
                    val np = p.extended(eK, newRels.toIndexedSeq)
                    counts.getOrElseUpdate(np, mutable.HashMap.empty)
                      .getOrElseUpdate(seq, mutable.ArrayBuffer.empty) += (occ :+ inst)
                    levelCandidateBytes += occBytes(k)
                  }
                  xi += 1
                }
                oi += 1
              }
            }
          }
        }
      }
      peakCandidateBytes = math.max(peakCandidateBytes, levelCandidateBytes)

      // σ/δ filtering. Frequent-but-unconfident patterns are still extended
      // under NoPrune/Apriori (the paper's ablation cost); Trans stops them
      // via Lemmas 6–7. Output always requires both thresholds.
      val keptForOutput = mutable.ArrayBuffer.empty[(Pattern, Int)]
      val keptForExtension = Vector.newBuilder[(Pattern, mutable.HashMap[Int, mutable.ArrayBuffer[Array[Instance]]])]
      for ((p, bySeq) <- counts) {
        val supp = bySeq.size
        if (supp >= minSupp) {
          val c = conf(p, supp)
          if (c >= cfg.delta) keptForOutput += ((p, supp))
          if (c >= cfg.delta || !cfg.pruneTrans) {
            keptForExtension += ((p, bySeq))
            structureBytes += bySeq.valuesIterator.map(_.length.toLong).sum * occBytes(k)
          }
        }
      }
      results ++= keptForOutput
      if (k == 2)
        keptForOutput.foreach { case (p, _) =>
          freq2(encTriple(p.events(0), p.rel(0, 1), p.events(1))) = true
        }
      prevOcc = keptForExtension.result()
      if (prevOcc.nonEmpty) maxLevelReached = k
    }

    structureBytes += peakCandidateBytes
    val stats = MiningStats(
      runtimeMillis = (System.nanoTime() - t0) / 1000000L,
      structureBytes = structureBytes,
      candidateNodes = candidateNodes,
      prunedNodes = prunedNodes,
      candidatePatterns = candidatePatterns,
      maxLevelReached = maxLevelReached)
    MiningResult(results.toMap, eventSupp.filter { case (e, s) => s >= minSupp }, n, stats)
  }
}
