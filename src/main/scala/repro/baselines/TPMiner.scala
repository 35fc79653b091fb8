package repro.baselines

import repro.core._
import repro.core.HTPGM.Shard

/** TPMiner baseline (Chen et al., TKDE 2015): level-wise mining over the
  * endpoint representation of event intervals.
  *
  * Characteristics reproduced (vs HTPGM):
  *  - each sequence is converted to its *endpoint sequence* (sorted starts
  *    and ends), kept for the whole run; the instances it mines are read
  *    back off the start endpoints;
  *  - stored occurrences, one [[HTPGM.Shard]] over those instances (flat
  *    instance-index arrays) extended by one level at a time in E-HTPGM's
  *    level loop, without transitivity pruning (no frequent-L2 check);
  *  - Apriori candidate filtering by *support only*, using per-event
  *    sequence-ID set intersections ([[SupportOnly]]: hash sets, no bitmaps);
  *  - no confidence pruning; confidence only filters the output.
  *
  * Its structure bytes are the loop's (kept occurrences and the largest
  * level of candidates) plus the endpoint sequences and the ID sets.
  * Output pattern set is identical to E-HTPGM's (asserted in tests).
  */
object TPMiner {

  /** Endpoint of an instance: (time, isEnd, instance). Sorting these gives
    * the endpoint sequence of Chen et al.
    */
  private final case class Endpoint(time: Long, isEnd: Boolean, inst: Instance)

  def mine(db: SequenceDB, cfg: MiningConfig): MiningResult = {
    val run = new SupportOnly(db, cfg)

    // Endpoint sequences (the TPMiner representation); kept for the whole run.
    val endpoints: IndexedSeq[Array[Endpoint]] = db.sequences.map { s =>
      s.instances.flatMap(i => Array(Endpoint(i.start, isEnd = false, i),
                                     Endpoint(i.end, isEnd = true, i)))
        .sortBy(e => (e.time, e.isEnd))
    }
    val representationBytes = endpoints.iterator.map(_.length.toLong * 40L).sum +
      run.seqSets.iterator.map(_.size.toLong * 16L).sum

    var shard = Shard(endpoints.indices.map(i =>
      TemporalSequence(i, endpoints(i).collect { case Endpoint(_, false, inst) => inst })))
    run.mine { step => shard = shard.extend(step); shard.counts }(_ + representationBytes)
  }
}
