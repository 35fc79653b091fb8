package repro.spark

import scala.collection.mutable
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core._
import repro.core.HTPGM.{Counts, Shard, Step}
import repro.data.SequenceBuilder
import repro.mi.CorrelationGraph

/** Distributed HTPGM: [[HTPGM]]'s own level loop over sequence shards.
  *
  * The instance frame is grouped by sequence once into one cached
  * [[HTPGM.Shard]] of whole sequences per core (`sc.defaultParallelism`),
  * whatever the frame's partitioning. The driver half of [[HTPGM]] runs on
  * the driver: it receives the event dictionary and each sequence's
  * distinct events (for the L1 bitmaps), and at each level broadcasts its
  * step (interned pattern ids and primitive arrays), which every shard
  * applies to its cached occurrences; the per-shard [[HTPGM.Counts]] are
  * collected and added with [[HTPGM.Counts.sum]]. D_SEQ itself never reaches
  * the driver. The shards and the broadcasts are released when the run
  * ends, not per level: an evicted shard is recomputed through every earlier
  * level's step.
  *
  * Patterns, supports and every [[MiningStats]] counter but the runtime
  * equal [[HTPGM]]'s (asserted in tests). The optional `graph` applies
  * A-HTPGM's L1/L2 restriction ([[AHTPGM.filter]]); its vertices are the
  * series in [[SequenceBuilder.seriesOrder]], as in `SequenceBuilder.fromRows`.
  */
object SparkHTPGM {

  /** Mine an instance DataFrame produced by `SequenceBuilder.instances`
    * (columns seq, series, symbol, start, end). Event ids follow
    * [[SequenceBuilder.events]], as in `SequenceBuilder.toLocal`, so
    * patterns are directly comparable with the local miners'.
    */
  def mine(instDf: DataFrame, cfg: MiningConfig,
           graph: Option[CorrelationGraph] = None): MiningResult = {
    val t0 = System.nanoTime()
    val sc = instDf.sparkSession.sparkContext
    val events = SequenceBuilder.events(instDf)
    val eventIdx = events.zipWithIndex.toMap
    val seriesIdx = SequenceBuilder.seriesOrder(events.map(_._1)).zipWithIndex.toMap
    val approx = graph.map(AHTPGM.filter(_, seriesIdx.size, e => seriesIdx(events(e)._1)))

    var shards = instDf
      .select(col("seq").cast("int"), col("series"), col("symbol"), col("start").cast("long"), col("end").cast("long"))
      .rdd.map(r => r.getInt(0) -> Instance(eventIdx((r.getString(1), r.getString(2))), r.getLong(3), r.getLong(4)))
      .groupByKey(sc.defaultParallelism)
      .mapPartitions(seqs => Iterator(Shard(seqs.map { case (id, insts) => SequenceBuilder.temporalSequence(id, insts) }.toSeq)))
      .cache()
    val broadcasts = mutable.ArrayBuffer.empty[Broadcast[Step]]
    try {
      val present = shards.flatMap(_.presence).collect().sortBy(_._1).map(_._2).toIndexedSeq
      val nodes = new HTPGM.BitmapNodes(SequenceDB.eventBitmaps(events.size, present), present.size,
                                        cfg.minSupp(present.size), cfg.delta)
      HTPGM.drive(t0, present.size, nodes, cfg, approx) { step =>
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
