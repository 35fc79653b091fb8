package repro.spark

import scala.collection.mutable
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame
import repro.core._
import repro.core.HTPGM.{Counts, Shard, Step}
import repro.data.SequenceBuilder
import repro.mi.CorrelationGraph

/** Distributed HTPGM: [[HTPGM]]'s own level loop over sequence shards.
  *
  * D_SEQ comes from [[SequenceBuilder.distributed]], which reads and
  * shuffles the instance frame once and hands back the event dictionary,
  * the L1 presence and the sequences; the cached [[HTPGM.Shard]]s, one per
  * partition, are mapped from those sequences. The driver half of [[HTPGM]]
  * runs on the driver: at each level it broadcasts its step (interned
  * pattern ids and primitive arrays), which every shard applies to its
  * cached occurrences; the per-shard [[HTPGM.Counts]] are collected and
  * added with [[HTPGM.Counts.sum]]. D_SEQ itself never reaches the driver.
  * The shards and the broadcasts are released when the run ends, not per
  * level: an evicted shard is recomputed through every earlier level's step.
  *
  * Patterns, supports and every [[MiningStats]] counter but the runtime
  * equal [[HTPGM]]'s (asserted in tests). The optional `graph` applies
  * A-HTPGM's L1/L2 restriction ([[AHTPGM.filter]]) over the dictionary's
  * series ids, as `AHTPGM.mine` does over `SequenceBuilder.toLocal`'s.
  */
object SparkHTPGM {

  /** Mine an instance DataFrame produced by `SequenceBuilder.instances`.
    * Event ids are those of `SequenceBuilder.toLocal`, so patterns are
    * directly comparable with the local miners'.
    */
  def mine(instDf: DataFrame, cfg: MiningConfig,
           graph: Option[CorrelationGraph] = None): MiningResult = {
    val t0 = System.nanoTime()
    val (dict, present, sequences) = SequenceBuilder.distributed(instDf)
    val approx = graph.map(AHTPGM.filter(_, dict.seriesNames.size, dict.eventSeries))
    var shards = sequences.mapPartitions(seqs => Iterator(Shard(seqs.toSeq))).cache()
    val sc = shards.sparkContext
    val broadcasts = mutable.ArrayBuffer.empty[Broadcast[Step]]
    try {
      val nodes = new HTPGM.BitmapNodes(SequenceDB.eventBitmaps(dict.eventNames.size, present), present.size,
                                        cfg.minSupp(present.size), cfg.delta)
      HTPGM.drive(t0, present.size, dict.eventNames, nodes, cfg, approx) { step =>
        val b = sc.broadcast(step)
        broadcasts += b
        val next = shards.map(_.extend(b.value)).cache()
        val counts = Counts.sum(Counts.width(step.level), next.map(_.counts).collect())
        shards.unpersist()
        shards = next
        counts
      }
    } finally {
      shards.unpersist()
      broadcasts.foreach(_.destroy())
    }
  }
}
