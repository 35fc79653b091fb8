package repro.baselines

import repro.core._
import repro.core.HTPGM.{Counts, Shard, Step}

/** IEMiner baseline (Patel et al., SIGMOD 2008): Apriori level-wise mining
  * over a hierarchical lossless representation.
  *
  * Characteristics reproduced (vs HTPGM):
  *  - no stored occurrences between levels: at level k the database is
  *    *re-scanned* and each sequence's occurrences are re-derived from
  *    scratch, by running the steps of levels 2..k over a fresh
  *    one-sequence [[HTPGM.Shard]], whose counts [[HTPGM.Counts.sum]] adds
  *    up (the repeated-scan cost that makes IEMiner slower than TPMiner but
  *    its Apriori filter faster than H-DFS);
  *  - Apriori candidate filtering by support only (sequence-ID hash sets,
  *    [[SupportOnly]]), in E-HTPGM's level loop without transitivity
  *    pruning;
  *  - no confidence pruning; confidence only filters the output.
  *
  * Since it keeps no occurrences, it reports its own structure bytes: each
  * level's candidate occurrences and per-pattern sequence lists.
  * Output pattern set is identical to E-HTPGM's (asserted in tests).
  */
object IEMiner {

  def mine(db: SequenceDB, cfg: MiningConfig): MiningResult = {
    var steps = Vector.empty[Step]
    var structureBytes = 0L
    new SupportOnly(db, cfg).mine { step =>
      steps :+= step
      val k = step.level
      val counts = Counts.sum(Counts.width(k),
        db.sequences.iterator.map(s => steps.foldLeft(Shard(Seq(s)))(_ extend _).counts))
      structureBytes += counts.candidates * MiningStats.occurrenceBytes(k) +
        counts.sequences.iterator.map(n => 48L + 12L * k + 16L * n).sum
      counts
    }(_ => structureBytes)
  }
}
