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
  *    Apriori decisions, the Lemma 5 alphabet, the frequent L2 relations of
  *    each event pair, the σ/δ filter and the [[MiningStats]];
  *  - the shard half ([[Shard]]) holds the occurrences in a set of whole
  *    sequences and extends them by one level per driver [[Step]],
  *    returning per-candidate [[Counts]].
  * The halves speak in interned patterns: the driver numbers the kept
  * patterns of each level, a candidate is (parent number, event, packed
  * relations), and the driver builds a [[Pattern]] only for a candidate
  * that reaches σ.
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
  *    looked up in the frequent L2 relations of its event pair before the
  *    extension is materialized (iterative verification), (c) only
  *    confident patterns are extended (Lemmas 6–7).
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

  /** The driver's instruction to every shard for level `level` (k): the
    * kept (k−1)-patterns, interned as the dense ids `0 until ext.length`,
    * with the shard key of id `i` in `kept(i·w until (i+1)·w)`, `w` being
    * [[Counts.width]]`(k−1)`; the events that may extend each (`ext(i)`,
    * empty for a pattern not extended); and, when Trans verifies the new
    * triples (k ≥ 3), the L2 relation masks `pairs`: bit r of `pairs(a)(b)`
    * is set iff (a, r, b) is a frequent, confident L2 pattern.
    */
  final case class Step(level: Int, kept: Array[Long], ext: Array[Array[Int]],
                        pairs: Option[Array[Array[Byte]]], cfg: MiningConfig)

  /** One level's shard output as primitive arrays, candidate by candidate:
    * candidate `c` has the key `keys(c·width until (c+1)·width)`,
    * `sequences(c)` supporting sequences and `occurrences(c)` occurrences.
    * A level-k key packs (parent id, eK) into its first word and the k−1
    * new relations, r(i, k−1) for i < k−1, at 2 bits each into the rest, so
    * it stays exact at every level. Every candidate extension is one
    * occurrence, so the occurrences add up to the candidates made. Shards
    * hold whole sequences, so [[Counts.sum]] of two shards' counts gives
    * those of their union.
    */
  final class Counts(val width: Int, val keys: Array[Long], val sequences: Array[Int],
                     val occurrences: Array[Long]) extends Serializable {
    def size: Int = sequences.length
    def candidates: Long = occurrences.sum
    def parent(c: Int): Int = (keys(c * width) >>> 32).toInt
    def event(c: Int): Int = keys(c * width).toInt
    def rel(c: Int, i: Int): Byte = ((keys(c * width + 1 + (i >> 5)) >>> ((i & 31) << 1)) & 3).toByte
  }

  object Counts {
    /** Key words of a level-k pattern: a level-1 pattern's key is its event,
      * a level-k ≥ 2 candidate's one word of (parent, eK) and ⌈(k−1)/32⌉ of
      * relations.
      */
    def width(k: Int): Int = if (k == 1) 1 else 1 + (k + 30) / 32

    /** The per-candidate sums of `parts`, all keyed at `width`. */
    def sum(width: Int, parts: IterableOnce[Counts]): Counts = {
      val table = new KeyTable(width)
      var seqs = new Array[Int](16)
      var occs = new Array[Long](16)
      for (p <- parts.iterator) {
        require(p.width == width, s"counts of key width ${p.width} summed at width $width")
        var c = 0
        while (c < p.size) {
          val i = table.add(p.keys, c * width)
          if (i == seqs.length) {
            seqs = java.util.Arrays.copyOf(seqs, 2 * i)
            occs = java.util.Arrays.copyOf(occs, 2 * i)
          }
          seqs(i) += p.sequences(c)
          occs(i) += p.occurrences(c)
          c += 1
        }
      }
      new Counts(width, table.keyArray, java.util.Arrays.copyOf(seqs, table.size),
                 java.util.Arrays.copyOf(occs, table.size))
    }
  }

  /** An insert-only open-addressing table from keys of `width` longs to dense
    * indices in insertion order.
    */
  private final class KeyTable(val width: Int) {
    private var keys = new Array[Long](16 * width)
    private var slots = new Array[Int](32) // index + 1; 0 is empty
    var size = 0

    private def hash(a: Array[Long], off: Int): Int = {
      var h = 0L
      var i = 0
      while (i < width) {
        h = (h ^ a(off + i)) * 0x9E3779B97F4A7C15L
        h ^= h >>> 32
        i += 1
      }
      h.toInt
    }

    private def equal(idx: Int, a: Array[Long], off: Int): Boolean = {
      var i = 0
      while (i < width && keys(idx * width + i) == a(off + i)) i += 1
      i == width
    }

    /** The slot that holds the key `a(off until off + width)`, or the empty
      * slot where it belongs.
      */
    private def slot(a: Array[Long], off: Int): Int = {
      val mask = slots.length - 1
      var s = hash(a, off) & mask
      while (slots(s) != 0 && !equal(slots(s) - 1, a, off)) s = (s + 1) & mask
      s
    }

    def indexOf(a: Array[Long], off: Int): Int = slots(slot(a, off)) - 1

    /** The key's index, inserting it first if it is new. */
    def add(a: Array[Long], off: Int): Int = {
      val s = slot(a, off)
      if (slots(s) != 0) return slots(s) - 1
      if ((size + 1) * width > keys.length) keys = java.util.Arrays.copyOf(keys, 2 * keys.length)
      System.arraycopy(a, off, keys, size * width, width)
      slots(s) = size + 1
      size += 1
      if (2 * size > slots.length) {
        slots = new Array[Int](2 * slots.length)
        for (i <- 0 until size) slots(slot(keys, i * width)) = i + 1
      }
      size - 1
    }

    def keyArray: Array[Long] = java.util.Arrays.copyOf(keys, size * width)
  }

  /** One pattern's occurrences in a shard, `k` instance indices each into its
    * sequence's [[EventSlices]]: the `j`-th supporting sequence position is
    * `seqs(j)` (ascending), and its occurrences fill `data` up to `ends(j)`.
    */
  private final class Occs(k: Int) {
    var seqs = new Array[Int](2)
    var ends = new Array[Int](2)
    var numSeqs = 0
    var data = new Array[Int](2 * k)
    var len = 0

    def numOccs: Long = len / k
    def begin(j: Int): Int = if (j == 0) 0 else ends(j - 1)

    /** Append, in sequence `seq`, the occurrence `occ(off until off + k − 1)`
      * extended by instance `x`. Sequences come in ascending order.
      */
    def add(seq: Int, occ: Array[Int], off: Int, x: Int): Unit = {
      if (numSeqs == 0 || seqs(numSeqs - 1) != seq) {
        if (numSeqs == seqs.length) {
          seqs = java.util.Arrays.copyOf(seqs, 2 * numSeqs)
          ends = java.util.Arrays.copyOf(ends, 2 * numSeqs)
        }
        seqs(numSeqs) = seq
        numSeqs += 1
      }
      if (len + k > data.length) data = java.util.Arrays.copyOf(data, math.max(2 * data.length, len + k))
      System.arraycopy(occ, off, data, len, k - 1)
      data(len + k - 1) = x
      len += k
      ends(numSeqs - 1) = len
    }
  }

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
    * current level's patterns in them, each pattern named by its key (see
    * [[Counts]]). [[Shard.apply]] starts at level 1, where a pattern is an
    * event and its occurrences are the instances of the event's slices.
    * Besides [[mine]] and `repro.spark.SparkHTPGM`, the TPMiner and IEMiner
    * baselines extend it with the steps of their [[drive]] run: TPMiner
    * keeps one shard across levels, IEMiner rebuilds one per sequence and
    * level.
    */
  final class Shard private (sequences: Array[TemporalSequence], level: Int,
                             table: KeyTable, occs: Array[Occs]) {

    /** This level's per-pattern counts. */
    lazy val counts: Counts = new Counts(table.width, table.keyArray, occs.map(_.numSeqs), occs.map(_.numOccs))

    /** The next level: each kept pattern's occurrences extended by one
      * instance of every event the step allows, in every way
      * [[Relation.extend]] allows. The candidates of event eK for an
      * occurrence are eK's slice of its sequence from the first instance
      * starting at or after the occurrence's last start (a binary search) to
      * the last one starting by its first start + t_max. Under Trans, the
      * masks of the pattern's events, read off its first occurrence, skip an
      * event with no frequent relation to one of them and verify every new
      * triple. The patterns the step does not keep are dropped.
      */
    def extend(step: Step): Shard = {
      require(step.level == level + 1, s"a level-${step.level} step on a level-$level shard")
      val k = step.level
      val next = new KeyTable(Counts.width(k))
      val nextOccs = mutable.ArrayBuffer.empty[Occs]
      val key = new Array[Long](next.width)
      val rels = new Array[Byte](level)
      val pairs = step.pairs.orNull
      val tMax = step.cfg.tMax
      for (id <- step.ext.indices; exts = step.ext(id); pi = table.indexOf(step.kept, id * table.width)
           if exts.nonEmpty && pi >= 0) {
        val p = occs(pi)
        // rows(i) holds the masks of the pattern's event i with every event.
        val rows = if (pairs == null) null else {
          val s = sequences(p.seqs(0)).slices
          Array.tabulate(level)(i => pairs(s.event(p.data(i))))
        }
        val viable = if (rows == null) exts else exts.filter(eK => rows.forall(_(eK) != 0))
        for (j <- 0 until p.numSeqs) {
          val seq = p.seqs(j)
          val s = sequences(seq).slices
          for (eK <- viable; ei = s.indexOf(eK) if ei >= 0) {
            key(0) = (id.toLong << 32) | eK
            var off = p.begin(j)
            while (off < p.ends(j)) {
              val first = s.start(p.data(off))
              val lim = first + tMax
              val maxStart = if (lim < first) Long.MaxValue else lim
              var y = lowerBound(s.start, s.from(ei), s.until(ei), s.start(p.data(off + level - 1)))
              while (y < s.until(ei) && s.start(y) <= maxStart) {
                if (Relation.extend(s, p.data, off, level, y, step.cfg, rels) &&
                    (rows == null || verified(rows, eK, rels))) {
                  pack(rels, key)
                  val c = next.add(key, 0)
                  if (c == nextOccs.length) nextOccs += new Occs(k)
                  nextOccs(c).add(seq, p.data, off, y)
                }
                y += 1
              }
              off += level
            }
          }
        }
      }
      new Shard(sequences, k, next, nextOccs.toArray)
    }
  }

  object Shard {
    def apply(sequences: Seq[TemporalSequence]): Shard = {
      val seqs = sequences.toArray
      val table = new KeyTable(1)
      val occs = mutable.ArrayBuffer.empty[Occs]
      val key = new Array[Long](1)
      for (seq <- seqs.indices) {
        val s = seqs(seq).slices
        for (ei <- s.events.indices) {
          key(0) = s.events(ei)
          val c = table.add(key, 0)
          if (c == occs.length) occs += new Occs(1)
          for (x <- s.from(ei) until s.until(ei)) occs(c).add(seq, Array.emptyIntArray, 0, x)
        }
      }
      new Shard(seqs, 1, table, occs.toArray)
    }
  }

  /** Pack the relations `rels` at 2 bits each into `key(1 until key.length)`
    * (see [[Counts]]).
    */
  private def pack(rels: Array[Byte], key: Array[Long]): Unit = {
    java.util.Arrays.fill(key, 1, key.length, 0L)
    var i = 0
    while (i < rels.length) {
      key(1 + (i >> 5)) |= rels(i).toLong << ((i & 31) << 1)
      i += 1
    }
  }

  /** Is every new triple frequent: is bit `rels(i)` of `rows(i)(eK)` set for
    * each i?
    */
  private def verified(rows: Array[Array[Byte]], eK: Int, rels: Array[Byte]): Boolean = {
    var i = 0
    while (i < rels.length && ((rows(i)(eK) >> rels(i)) & 1) != 0) i += 1
    i == rels.length
  }

  /** The first index in `from until until` of the ascending `a` whose value
    * is at least `v` (or `until`).
    */
  private def lowerBound(a: Array[Long], from: Int, until: Int, v: Long): Int = {
    var lo = from; var hi = until
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < v) lo = mid + 1 else hi = mid
    }
    lo
  }

  def mine(db: SequenceDB, cfg: MiningConfig,
           approx: Option[ApproxFilter] = None): MiningResult = {
    val t0 = System.nanoTime()
    var shard = Shard(db.sequences)
    drive(t0, db.size, db.eventNames, new BitmapNodes(db.eventBitmaps, db.size, cfg.minSupp(db.size), cfg.delta),
          cfg, approx) { step =>
      shard = shard.extend(step)
      shard.counts
    }
  }

  /** The driver half over `n` sequences of events named `eventNames`, with
    * the node test `nodes`: `extend` runs one [[Step]] on every shard and
    * returns the sum of their [[Counts]]. The reported runtime counts from
    * `t0`; the structure bytes are the node test's plus the kept occurrences
    * and the largest level of candidates.
    */
  private[repro] def drive(t0: Long, n: Int, eventNames: IndexedSeq[String], nodes: Nodes, cfg: MiningConfig,
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

    // Frequent + confident L2 triples: bit r of pairs(a)(b) for (a, r, b).
    val pairs = Array.fill(numEvents)(new Array[Byte](numEvents))

    val results = mutable.HashMap.empty[Pattern, Int]
    // The kept patterns, interned: id i is kept(i), and the shards know it by
    // the key keptKeys(i·w until (i+1)·w).
    var kept: Array[Pattern] = freq1.map(e => Pattern(Vector(e), Vector.empty)).toArray
    var keptKeys: Array[Long] = freq1.map(_.toLong).toArray
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
      val ext = Array.fill(kept.length)(Array.emptyIntArray)
      for ((nodeEv, ids) <- kept.indices.groupBy(kept(_).events.sorted)) {
        val exts = allowedExt.filter { eK =>
          (k != 2 || approx.forall(_.pairAllowed(nodeEv(0), eK))) &&
            (!cfg.pruneApriori || nodes.passes((nodeEv :+ eK).sorted))
        }.toArray
        ids.foreach(ext(_) = exts)
      }
      val counts = extend(Step(k, keptKeys, ext, Option.when(k > 2 && cfg.pruneTrans)(pairs), cfg))
      val candidates = counts.candidates
      candidatePatterns += candidates
      peakCandidateBytes = math.max(peakCandidateBytes, candidates * MiningStats.occurrenceBytes(k))

      // σ/δ filtering. Frequent-but-unconfident patterns are still extended
      // without Trans (the paper's ablation cost, and the baselines); Trans
      // stops them via Lemmas 6–7. Output always requires both thresholds.
      // Only the frequent candidates become Pattern objects.
      val next = Array.newBuilder[Pattern]
      val nextKeys = Array.newBuilder[Long]
      for (c <- 0 until counts.size; supp = counts.sequences(c) if supp >= minSupp) {
        val p = kept(counts.parent(c)).extended(counts.event(c), IndexedSeq.tabulate(k - 1)(counts.rel(c, _)))
        val conf = MiningResult.confidence(supp, p.events, eventSupp)
        if (conf >= cfg.delta) {
          results(p) = supp
          if (k == 2) pairs(p.events(0))(p.events(1)) = (pairs(p.events(0))(p.events(1)) | 1 << p.rel(0, 1)).toByte
        }
        if (conf >= cfg.delta || !cfg.pruneTrans) {
          next += p
          nextKeys ++= counts.keys.slice(c * counts.width, (c + 1) * counts.width)
          occurrenceBytes += counts.occurrences(c) * MiningStats.occurrenceBytes(k)
        }
      }
      kept = next.result()
      keptKeys = nextKeys.result()
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
    MiningResult(results.toMap, eventSupport, n, stats, eventNames)
  }
}
