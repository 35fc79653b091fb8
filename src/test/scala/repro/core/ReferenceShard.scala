package repro.core

import scala.collection.mutable

/** The level-k kernel as it was before patterns were interned: occurrences
  * as `Array[Instance]` in a `HashMap` keyed by [[Pattern]], extended by an
  * instance-based copy of the extension rule. Kept as the reference that
  * [[HTPGM.Shard]] must reproduce level by level (ShardSpec).
  */
final class ReferenceShard private (
    sequences: Array[TemporalSequence],
    occ: mutable.HashMap[Pattern, mutable.HashMap[Int, mutable.ArrayBuffer[Array[Instance]]]]) {

  /** Per pattern: its supporting sequences and its occurrences. */
  def counts: Map[Pattern, (Int, Long)] =
    occ.iterator.map { case (p, bySeq) => p -> ((bySeq.size, bySeq.valuesIterator.map(_.length.toLong).sum)) }.toMap

  /** Extend each pattern of `ext` by one instance of each of its events; with
    * `frequentL2`, every new triple (a, r, b) must be in that set.
    */
  def extend(ext: Map[Pattern, Array[Int]], frequentL2: Option[Set[(Int, Byte, Int)]],
             cfg: MiningConfig): ReferenceShard = {
    val next = mutable.HashMap.empty[Pattern, mutable.HashMap[Int, mutable.ArrayBuffer[Array[Instance]]]]
    for ((p, bySeq) <- occ; eK <- ext.getOrElse(p, Array.emptyIntArray); (seq, occs) <- bySeq;
         o <- occs; inst <- sequences(seq).instances if inst.event == eK) {
      val rels = ReferenceShard.extend(o, inst, cfg)
      if (rels != null && frequentL2.forall(l2 => rels.indices.forall(i => l2((p.events(i), rels(i), eK)))))
        next.getOrElseUpdate(p.extended(eK, rels.toIndexedSeq), mutable.HashMap.empty)
          .getOrElseUpdate(seq, mutable.ArrayBuffer.empty) += (o :+ inst)
    }
    new ReferenceShard(sequences, next)
  }
}

object ReferenceShard {
  /** Level 1: every instance is a one-event occurrence. */
  def apply(sequences: Seq[TemporalSequence]): ReferenceShard = {
    val seqs = sequences.toArray
    val occ = mutable.HashMap.empty[Pattern, mutable.HashMap[Int, mutable.ArrayBuffer[Array[Instance]]]]
    for (i <- seqs.indices; inst <- seqs(i).instances)
      occ.getOrElseUpdate(Pattern(Vector(inst.event), Vector.empty), mutable.HashMap.empty)
        .getOrElseUpdate(i, mutable.ArrayBuffer.empty) += Array(inst)
    new ReferenceShard(seqs, occ)
  }

  /** The extension rule over instances: `inst` must follow `occ`'s last
    * instance chronologically, the extended occurrence must span at most
    * `t_max`, and every pair must relate; the new relations, or null.
    */
  private def extend(occ: Array[Instance], inst: Instance, cfg: MiningConfig): Array[Byte] = {
    if (Instance.chrono.compare(inst, occ.last) <= 0 || inst.end - occ(0).start > cfg.tMax) return null
    val rels = occ.map(o => Relation.classify(o.start, o.end, inst.start, inst.end, cfg.eps, cfg.dO))
    if (rels.contains(Relation.None)) null else rels
  }
}
