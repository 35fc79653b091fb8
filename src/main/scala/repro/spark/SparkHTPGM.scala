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
  * The instance frame is read once, as the `InternalRow`s of its plan, and
  * shuffled once, grouping its instances by sequence into
  * `sc.defaultParallelism` partitions whatever the frame's partitioning. One
  * job collects each sequence's distinct `(series, symbol)` names, from which
  * the driver builds the event dictionary and the L1 presence bitmaps; the
  * cached [[HTPGM.Shard]]s, one per partition, are then mapped from the same
  * shuffle output, so the frame is computed once even when it is not cached.
  * The driver half of [[HTPGM]] runs on the driver: at each level it
  * broadcasts its step (interned pattern ids and primitive arrays), which
  * every shard applies to its cached occurrences; the per-shard
  * [[HTPGM.Counts]] are collected and added with [[HTPGM.Counts.sum]]. D_SEQ
  * itself never reaches the driver. The shards and the broadcasts are
  * released when the run ends, not per level: an evicted shard is recomputed
  * through every earlier level's step.
  *
  * Patterns, supports and every [[MiningStats]] counter but the runtime
  * equal [[HTPGM]]'s (asserted in tests). The optional `graph` applies
  * A-HTPGM's L1/L2 restriction ([[AHTPGM.filter]]); its vertices are the
  * series in [[SequenceBuilder.seriesOrder]], as in `SequenceBuilder.fromRows`.
  */
object SparkHTPGM {

  /** Mine an instance DataFrame produced by `SequenceBuilder.instances`
    * (columns seq, series, symbol, start, end; a null fails naming its
    * column). Event ids follow [[SequenceBuilder.eventOrder]], as in
    * `SequenceBuilder.toLocal`, so patterns are directly comparable with the
    * local miners'.
    */
  def mine(instDf: DataFrame, cfg: MiningConfig,
           graph: Option[CorrelationGraph] = None): MiningResult = {
    val t0 = System.nanoTime()
    val sc = instDf.sparkSession.sparkContext
    val bySeq = SequenceBuilder.instanceColumns(instDf).queryExecution.toRdd
      .map { r =>
        SequenceBuilder.requireNonNull(SequenceBuilder.InstanceColumns)(r.isNullAt)
        r.getInt(0) -> ((r.getUTF8String(1).toString, r.getUTF8String(2).toString), r.getLong(3), r.getLong(4))
      }
      .groupByKey(sc.defaultParallelism)
    val names = bySeq.mapValues(_.map(_._1).toArray.distinct).collect().sortBy(_._1).toIndexedSeq.map(_._2)
    val events = SequenceBuilder.eventOrder(names.flatten)
    val eventIdx = events.zipWithIndex.toMap
    val seriesIdx = SequenceBuilder.seriesOrder(events.map(_._1)).zipWithIndex.toMap
    val approx = graph.map(AHTPGM.filter(_, seriesIdx.size, e => seriesIdx(events(e)._1)))
    val present = names.map(_.map(eventIdx))

    var shards = bySeq
      .mapPartitions(seqs => Iterator(Shard(seqs.map { case (id, insts) =>
        SequenceBuilder.temporalSequence(id, insts.map { case (e, start, end) => Instance(eventIdx(e), start, end) })
      }.toSeq)))
      .cache()
    val broadcasts = mutable.ArrayBuffer.empty[Broadcast[Step]]
    try {
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
