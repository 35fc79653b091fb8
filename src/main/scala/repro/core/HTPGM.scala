package repro.core

import scala.collection.mutable

/** Exact Hierarchical Temporal Pattern Graph Mining (Algorithm 1).
  *
  * The miner is level-wise over the Hierarchical Pattern Graph: level 1
  * holds frequent single events (bitmap popcounts), and level k ≥ 2
  * extends the stored occurrences of level k−1 patterns (single instances
  * at level 2) with one chronologically-later instance of the same
  * sequence. [[Relation.extend]] decides each extension and classifies its
  * relations (DESIGN.md §3 proves this regeneration is complete).
  *
  * The loop has two halves, so that the local and the distributed miner
  * share it:
  *  - the driver half ([[drive]]) holds the node test ([[Nodes]]), the
  *    Apriori decisions, the Lemma 5 alphabet, the frequent-L2 table, the
  *    σ/δ filter and the [[MiningStats]];
  *  - the shard half ([[Shard]]) holds the occurrences in a set of whole
  *    sequences and extends them by one level per driver [[Step]],
  *    returning per-pattern [[Counts]].
  * [[mine]] runs the driver over one shard, the whole [[SequenceDB]], with
  * the bitmap node test ([[BitmapNodes]]); `repro.spark.SparkHTPGM` runs it
  * over the partitions of an RDD. The level-wise baselines TPMiner and
  * IEMiner run the same driver with their own node test.
  *
  * Pruning toggles map to the paper's ablation (Fig. 6/7):
  *  - `pruneApriori` — Lemmas 2–3: an event combination (node) is mined
  *    only if it passes the node test; E-HTPGM's requires joint-bitmap
  *    support ≥ σ and node confidence ≥ δ.
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

  /** The driver's instruction to every shard for one level: each kept
    * (k−1)-pattern with the events that may extend it, and, when Trans
    * verifies the new triples (k ≥ 3), the frequent-L2 table over
    * `numEvents` events.
    */
  final case class Step(ext: Map[Pattern, Array[Int]], freq2: Option[Array[Boolean]],
                        numEvents: Int, cfg: MiningConfig)

  /** One level's shard output: per candidate pattern, its number of
    * supporting sequences and of occurrences. Every candidate extension
    * is one occurrence, so the occurrences add up to the candidates made.
    * Shards hold whole sequences, so adding the counts of two shards gives
    * those of their union.
    */
  final case class Counts(support: Map[Pattern, (Int, Long)]) {
    def candidates: Long = support.valuesIterator.map(_._2).sum

    def ++(o: Counts): Counts =
      if (support.size < o.support.size) o ++ this
      else Counts(o.support.foldLeft(support) { case (acc, (p, (s, n))) =>
        acc.updated(p, acc.get(p).fold((s, n)) { case (s0, n0) => (s0 + s, n0 + n) })
      })
  }

  object Counts {
    val empty: Counts = Counts(Map.empty)
  }

  /** One pattern's occurrences in a shard, by sequence position, and how
    * many there are.
    */
  private final class Occurrences {
    val bySeq = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Array[Instance]]]
    var size = 0L
    def add(seq: Int, occ: Array[Instance]): Unit = {
      bySeq.getOrElseUpdate(seq, mutable.ArrayBuffer.empty) += occ
      size += 1
    }
  }

  /** Index of the triple (a, r, b) in the frequent-L2 table. */
  private def triple(numEvents: Int, a: Int, r: Byte, b: Int): Int = (a * numEvents + b) * 4 + r

  /** The node test of [[drive]]: an HPG node is a sorted event multiset, and
    * under `pruneApriori` a pattern is extended by an event only if the node
    * of its events plus that event passes. It holds each event's support
    * (the number of sequences it occurs in), decides each node once, and
    * counts the nodes it decided, those it pruned and the bytes it used.
    */
  private[repro] abstract class Nodes {
    val eventSupport: IndexedSeq[Int]
    var candidates = 0L
    var pruned = 0L
    var bytes = 0L
    private val cache = mutable.HashMap.empty[Vector[Int], Boolean]

    /** Does the node pass? Called once per node. */
    protected def test(events: Vector[Int]): Boolean

    def passes(events: Vector[Int]): Boolean =
      cache.getOrElseUpdate(events, {
        candidates += 1
        val ok = test(events)
        if (!ok) pruned += 1
        ok
      })
  }

  /** E-HTPGM's node test (Lemmas 2–3) over the per-event presence bitmaps
    * of [[SequenceDB.eventBitmaps]] over `n` sequences (Section IV.D): a node
    * passes if the popcount of its joint bitmap, the AND of its events' sets,
    * is at least `minSupp` and its node confidence at least `delta`. The L1
    * bitmaps count as nodes and bytes, and so does each joint bitmap; each is
    * charged a fixed width of `n` bits, whatever its highest set bit.
    */
  private[repro] final class BitmapNodes(bitmaps: IndexedSeq[java.util.BitSet], n: Int, minSupp: Int, delta: Double) extends Nodes {
    private val bitmapBytes = 16L + 8L * ((n + 63) >> 6)
    val eventSupport: IndexedSeq[Int] = bitmaps.map(_.cardinality)
    candidates = bitmaps.size
    bytes = bitmaps.size * bitmapBytes

    protected def test(events: Vector[Int]): Boolean = {
      val joint = bitmaps(events.head).clone().asInstanceOf[java.util.BitSet]
      events.tail.foreach(e => joint.and(bitmaps(e)))
      bytes += bitmapBytes
      val supp = joint.cardinality
      supp >= minSupp && MiningResult.confidence(supp, events, eventSupport) >= delta
    }
  }

  /** The shard half: a set of whole sequences and the occurrences of the
    * current level's patterns in them. [[Shard.apply]] starts at level 1,
    * where every instance is a one-event occurrence. Besides [[mine]] and
    * `repro.spark.SparkHTPGM`, the TPMiner and IEMiner baselines extend it
    * with the steps of their [[drive]] run: TPMiner keeps one shard across
    * levels, IEMiner rebuilds one per sequence and level.
    */
  final class Shard private (sequences: Array[TemporalSequence],
                             occ: mutable.HashMap[Pattern, Occurrences], val counts: Counts) {

    /** Each sequence's id and distinct events. */
    def presence: Seq[(Int, Array[Int])] = sequences.toSeq.map(s => s.id -> s.byEvent.keys.toArray)

    /** The next level: the step's patterns, each occurrence extended by one
      * instance in every way the step allows. The patterns the step does not
      * extend are dropped from this shard first; nothing reads them again.
      */
    def extend(step: Step): Shard = {
      occ.filterInPlace((p, _) => step.ext.contains(p))
      val next = mutable.HashMap.empty[Pattern, Occurrences]
      val freq2 = step.freq2.orNull
      for ((p, occs) <- occ; eK <- step.ext(p); (seq, seqOccs) <- occs.bySeq) {
        val insts = sequences(seq).byEvent.getOrElse(eK, null)
        if (insts != null) {
          var oi = 0
          while (oi < seqOccs.length) {
            val o = seqOccs(oi)
            var xi = 0
            while (xi < insts.length) {
              val inst = insts(xi)
              val newRels = Relation.extend(o, eK, inst.start, inst.end, step.cfg)
              // Trans (iterative verification): every new triple must be a
              // frequent L2 triple.
              if (newRels != null && (freq2 == null ||
                  newRels.indices.forall(i => freq2(triple(step.numEvents, p.events(i), newRels(i), eK)))))
                next.getOrElseUpdate(p.extended(eK, newRels.toIndexedSeq), new Occurrences).add(seq, o :+ inst)
              xi += 1
            }
            oi += 1
          }
        }
      }
      new Shard(sequences, next, Counts(next.iterator.map { case (p, o) => p -> ((o.bySeq.size, o.size)) }.toMap))
    }
  }

  object Shard {
    def apply(sequences: Seq[TemporalSequence]): Shard = {
      val seqs = sequences.toArray
      val occ = mutable.HashMap.empty[Pattern, Occurrences]
      for (i <- seqs.indices; (e, insts) <- seqs(i).byEvent) {
        val occs = occ.getOrElseUpdate(Pattern(Vector(e), Vector.empty), new Occurrences)
        insts.foreach(inst => occs.add(i, Array(inst)))
      }
      new Shard(seqs, occ, Counts.empty)
    }
  }

  def mine(db: SequenceDB, cfg: MiningConfig,
           approx: Option[ApproxFilter] = None): MiningResult = {
    val t0 = System.nanoTime()
    var shard = Shard(db.sequences)
    drive(t0, db.size, new BitmapNodes(db.eventBitmaps, db.size, cfg.minSupp(db.size), cfg.delta), cfg, approx) { step =>
      shard = shard.extend(step)
      shard.counts
    }
  }

  /** The driver half over `n` sequences with the node test `nodes`:
    * `extend` runs one [[Step]] on every shard and returns the sum of their
    * [[Counts]]. The reported runtime counts from `t0`; the structure bytes
    * are the node test's plus the kept occurrences and the largest level of
    * candidates.
    */
  private[repro] def drive(t0: Long, n: Int, nodes: Nodes, cfg: MiningConfig,
                           approx: Option[ApproxFilter])(extend: Step => Counts): MiningResult = {
    val eventSupp = nodes.eventSupport
    val numEvents = eventSupp.size
    val minSupp = cfg.minSupp(n)

    var occurrenceBytes = 0L
    var candidatePatterns = 0L
    var peakCandidateBytes = 0L

    // ---- Level 1: frequent single events (Section IV.D) ----------------
    val freq1: Vector[Int] = (0 until numEvents)
      .filter(e => eventSupp(e) >= minSupp)
      .filter(e => approx.forall(_.eventAllowed(e)))
      .toVector

    // Frequent + confident L2 triples, as a dense boolean table for
    // allocation-free Lemma 5 lookups in the extension hot path.
    val freq2 = new Array[Boolean](numEvents * numEvents * 4)

    val results = mutable.HashMap.empty[Pattern, Int]
    var kept: Vector[Pattern] = freq1.map(e => Pattern(Vector(e), Vector.empty))
    var level = 1
    var maxLevelReached = 1

    while (kept.nonEmpty && level < cfg.maxLevel) {
      level += 1
      val k = level

      // Lemma 5 filtering of the extension alphabet (Trans only; level 2
      // always extends with all of 1Freq — there are no prior patterns).
      val allowedExt: Vector[Int] =
        if (k == 2 || !cfg.pruneTrans) freq1
        else {
          val used = kept.iterator.flatMap(_.events).toSet
          freq1.filter(used)
        }

      // The Apriori node filter (Lemmas 2-3) depends only on the event
      // multiset, so patterns are grouped by node and each (node, event)
      // pair is checked once — the HPG's node structure, not per-pattern.
      // A-HTPGM: at level 2 only graph-connected series pairs are mined.
      val ext: Map[Pattern, Array[Int]] = kept.groupBy(_.events.sorted).flatMap { case (nodeEv, pats) =>
        val exts = allowedExt.filter { eK =>
          (k != 2 || approx.forall(_.pairAllowed(nodeEv(0), eK))) &&
            (!cfg.pruneApriori || nodes.passes((nodeEv :+ eK).sorted))
        }.toArray
        if (exts.isEmpty) Nil else pats.map(_ -> exts)
      }
      val counts = extend(Step(ext, Option.when(k > 2 && cfg.pruneTrans)(freq2), numEvents, cfg))
      val candidates = counts.candidates
      candidatePatterns += candidates
      peakCandidateBytes = math.max(peakCandidateBytes, candidates * MiningStats.occurrenceBytes(k))

      // σ/δ filtering. Frequent-but-unconfident patterns are still extended
      // without Trans (the paper's ablation cost, and the baselines); Trans
      // stops them via Lemmas 6–7. Output always requires both thresholds.
      val next = Vector.newBuilder[Pattern]
      for ((p, (supp, occurrences)) <- counts.support if supp >= minSupp) {
        val c = MiningResult.confidence(supp, p.events, eventSupp)
        if (c >= cfg.delta) {
          results(p) = supp
          if (k == 2) freq2(triple(numEvents, p.events(0), p.rel(0, 1), p.events(1))) = true
        }
        if (c >= cfg.delta || !cfg.pruneTrans) {
          next += p
          occurrenceBytes += occurrences * MiningStats.occurrenceBytes(k)
        }
      }
      kept = next.result()
      if (kept.nonEmpty) maxLevelReached = k
    }

    val stats = MiningStats(
      runtimeMillis = (System.nanoTime() - t0) / 1000000L,
      structureBytes = nodes.bytes + occurrenceBytes + peakCandidateBytes,
      candidateNodes = nodes.candidates,
      prunedNodes = nodes.pruned,
      candidatePatterns = candidatePatterns,
      maxLevelReached = maxLevelReached)
    val eventSupport = (0 until numEvents).collect { case e if eventSupp(e) >= minSupp => e -> eventSupp(e) }.toMap
    MiningResult(results.toMap, eventSupport, n, stats)
  }
}
