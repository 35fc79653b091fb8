package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core._
import repro.core.HTPGM.{Counts, Shard}
import repro.data.SequenceBuilder
import repro.mi.CorrelationGraph

/** Distributed HTPGM: [[HTPGM]]'s own level loop over sequence shards.
  *
  * The instance frame is grouped by sequence once; each partition becomes
  * one [[HTPGM.Shard]] of whole sequences, cached. The driver half of
  * [[HTPGM]] runs on the driver: it receives the event dictionary and each
  * sequence's distinct events (for the L1 bitmaps), and at each level
  * broadcasts its step (interned pattern ids and primitive arrays), which
  * every shard applies to its cached occurrences; the per-shard
  * [[HTPGM.Counts]], primitive arrays keyed by interned candidate, are
  * collected and added with [[HTPGM.Counts.sum]]. D_SEQ itself never reaches
  * the driver.
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

    var shards = instDf
      .select(col("seq").cast("int"), col("series"), col("symbol"), col("start").cast("long"), col("end").cast("long"))
      .rdd.map(r => r.getInt(0) -> Instance(eventIdx((r.getString(1), r.getString(2))), r.getLong(3), r.getLong(4)))
      .groupByKey()
      .mapPartitions(seqs => Iterator(Shard(seqs.map { case (id, insts) => SequenceBuilder.temporalSequence(id, insts) }.toSeq)))
      .cache()
    val present = shards.flatMap(_.presence).collect().sortBy(_._1).map(_._2).toIndexedSeq

    val seriesIdx = SequenceBuilder.seriesOrder(events.map(_._1)).zipWithIndex.toMap
    val approx = graph.map(AHTPGM.filter(_, seriesIdx.size, e => seriesIdx(events(e)._1)))

    val nodes = new HTPGM.BitmapNodes(SequenceDB.eventBitmaps(events.size, present), present.size,
                                      cfg.minSupp(present.size), cfg.delta)
    val result = HTPGM.drive(t0, present.size, nodes, cfg, approx) { step =>
      val b = sc.broadcast(step)
      val next = shards.map(_.extend(b.value)).cache()
      val counts = Counts.sum(Counts.width(step.level), next.map(_.counts).collect())
      shards.unpersist()
      shards = next
      counts
    }
    shards.unpersist()
    result
  }
}
