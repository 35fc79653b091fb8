package repro.baselines

import repro.core._
import repro.core.HTPGM.{Counts, Step}

/** The node test of the level-wise baselines, TPMiner and IEMiner, in place
  * of E-HTPGM's bitmaps: per-event sequence-ID hash sets, and a node passes
  * if its events share at least `minSupp` sequences — support alone, with no
  * node confidence. Construct one per run; the run's clock starts here.
  */
private[baselines] final class SupportOnly(db: SequenceDB, cfg: MiningConfig) extends HTPGM.Nodes {
  private val t0 = System.nanoTime()
  private val minSupp = cfg.minSupp(db.size)

  /** Event id → ids of the sequences it occurs in. */
  val seqSets: IndexedSeq[Set[Int]] = {
    val ids = db.sequences.flatMap(s => s.slices.events.map(_ -> s.id)).groupMap(_._1)(_._2)
    (0 until db.numEvents).map(e => ids.getOrElse(e, Nil).toSet)
  }
  val eventSupport: IndexedSeq[Int] = seqSets.map(_.size)

  protected def test(events: Vector[Int]): Boolean =
    events.map(seqSets).reduce(_ intersect _).size >= minSupp

  /** [[HTPGM.drive]] with this node test, Apriori node filtering and no
    * transitivity pruning: every frequent pattern is extended, confident or
    * not, and the frequent patterns that reach δ are reported. `extend` turns
    * each level's [[Step]] into its [[Counts]]; `structureBytes` maps the
    * driver's bytes (kept occurrences and the largest level of candidates)
    * to those the miner reports.
    */
  def mine(extend: Step => Counts)(structureBytes: Long => Long): MiningResult = {
    val r = HTPGM.drive(t0, db.size, db.eventNames, this, cfg.copy(pruneApriori = true, pruneTrans = false), None)(extend)
    r.copy(stats = r.stats.copy(structureBytes = structureBytes(r.stats.structureBytes)))
  }
}
