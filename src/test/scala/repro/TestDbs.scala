package repro

import scala.collection.mutable
import scala.util.Random
import repro.core._

/** Hand-rolled sequence databases and a brute-force miner used as an
  * independent oracle for the algorithmic miners.
  */
object TestDbs {

  /** SequenceDB from (seq, event, start, end) tuples; events named E<i>,
    * each its own series.
    */
  def db(numEvents: Int, rows: Seq[(Int, Int, Long, Long)]): SequenceDB = {
    val names = (0 until numEvents).map(i => s"E$i")
    val seqIds = rows.map(_._1).distinct.sorted
    require(seqIds == seqIds.indices.toList.map(identity), "seq ids must be dense from 0")
    val seqs = seqIds.map { id =>
      TemporalSequence(id, rows.filter(_._1 == id)
        .map(r => Instance(r._2, r._3, r._4)).distinct.sorted(Instance.chrono).toArray)
    }
    SequenceDB(seqs.toIndexedSeq, names, (0 until numEvents).toIndexedSeq, names)
  }

  /** A 3-sequence database with hand-verifiable mining results (see
    * HTPGMSpec "hand-checked example").
    */
  def handChecked: SequenceDB = db(3, Seq(
    (0, 0, 0L, 10L), (0, 1, 2L, 8L), (0, 2, 12L, 15L),
    (1, 0, 0L, 10L), (1, 1, 2L, 8L), (1, 2, 11L, 14L),
    (2, 0, 0L, 10L), (2, 1, 12L, 14L)))

  /** Random database: `nSeqs` sequences over `nEvents` events, each event
    * present in a sequence w.p. `pPresent` with 1..3 instances of short
    * random intervals. Deterministic in `seed`.
    */
  def random(seed: Long, nSeqs: Int = 6, nEvents: Int = 5,
             pPresent: Double = 0.7, horizon: Int = 30): SequenceDB = {
    val rng = new Random(seed)
    val rows = mutable.ArrayBuffer.empty[(Int, Int, Long, Long)]
    for (s <- 0 until nSeqs; e <- 0 until nEvents if rng.nextDouble() < pPresent) {
      for (_ <- 0 to rng.nextInt(3)) {
        val st = rng.nextInt(horizon).toLong
        rows += ((s, e, st, st + 1 + rng.nextInt(6)))
      }
    }
    // every sequence id must exist: pad empty ones with a dummy instance
    for (s <- 0 until nSeqs if !rows.exists(_._1 == s))
      rows += ((s, 0, 0L, 1L))
    db(nEvents, rows.toSeq)
  }

  /** Random database of edge instances, which [[random]] never draws:
    * lengths 0–6, and instances that start exactly `tMax` after another
    * one's start. Each of 5 sequences has 1–5 drawn instances over 3
    * events, starting at 0–11; its first start always gets a zero-length
    * instance at first start + `tMax`, which lies within t_max of it, and
    * every other drawn start gets one w.p. 1/2, of length 0–2.
    * Deterministic in `seed`.
    */
  def edges(seed: Long, tMax: Long): SequenceDB = {
    val nEvents = 3
    val rng = new Random(seed)
    val rows = mutable.ArrayBuffer.empty[(Int, Int, Long, Long)]
    for (s <- 0 until 5) {
      val drawn = (0 to rng.nextInt(5)).map { _ =>
        val st = rng.nextInt(12).toLong
        (s, rng.nextInt(nEvents), st, st + rng.nextInt(7))
      }
      val first = drawn.map(_._3).min
      rows ++= drawn
      rows += ((s, rng.nextInt(nEvents), first + tMax, first + tMax))
      for ((_, _, st, _) <- drawn if st != first && rng.nextBoolean())
        rows += ((s, rng.nextInt(nEvents), st + tMax, st + tMax + rng.nextInt(3)))
    }
    db(nEvents, rows.toSeq)
  }

  /** Brute-force frequent-temporal-pattern miner: enumerates every
    * chronologically increasing instance tuple up to `maxSize` per
    * sequence, classifies all pairwise relations, and thresholds supports
    * and confidences. Exponential — small inputs only.
    */
  def naiveMine(db: SequenceDB, cfg: MiningConfig, maxSize: Int): Map[Pattern, Int] = {
    val n = db.size
    val minSupp = cfg.minSupp(n)
    val eventSupp = (0 until db.numEvents).map(e =>
      e -> db.sequences.count(_.instances.exists(_.event == e))).toMap
    val bySeq = mutable.HashMap.empty[Pattern, mutable.HashSet[Int]]

    def rec(seq: TemporalSequence, tuple: List[Instance]): Unit = {
      if (tuple.size >= 2) {
        val insts = tuple.reverse.toArray
        val k = insts.length
        val rels = Vector.newBuilder[Byte]
        var ok = true
        for (j <- 1 until k; i <- 0 until j if ok) {
          val r = Relation.classify(insts(i).start, insts(i).end,
            insts(j).start, insts(j).end, cfg.eps, cfg.dO)
          if (r == Relation.None) ok = false else rels += r
        }
        if (ok) bySeq.getOrElseUpdate(Pattern(insts.map(_.event).toVector, rels.result()),
          mutable.HashSet.empty) += seq.id
      }
      if (tuple.size < maxSize) {
        for (inst <- seq.instances) {
          val afterLast = tuple.headOption.forall(last => Instance.chrono.compare(inst, last) > 0)
          val within = tuple.lastOption.forall(first => inst.end - first.start <= cfg.tMax)
          if (afterLast && within) rec(seq, inst :: tuple)
        }
      }
    }
    db.sequences.foreach(s => rec(s, Nil))

    bySeq.collect { case (p, seqs)
      if seqs.size >= minSupp &&
         seqs.size.toDouble / p.events.iterator.map(eventSupp).max >= cfg.delta =>
      p -> seqs.size
    }.toMap
  }
}
