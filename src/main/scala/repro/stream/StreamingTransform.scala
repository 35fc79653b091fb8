package repro.stream

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.data.SequenceBuilder

/** One symbolized slot arriving on the stream. */
final case class SymSlot(series: String, t: Long, symbol: String)

/** A closed event instance emitted by the streaming run-merger. */
final case class StreamInstance(series: String, symbol: String, start: Long, end: Long)

/** Open run per series carried in stream state. */
final case class OpenRun(symbol: String, start: Long, lastT: Long)

/** Streaming front-end of the FTPMfTS data-transformation phase.
  *
  * `instanceStream` turns a stream of symbolized slots into a stream of
  * closed event instances via per-series `flatMapGroupsWithState` (runs of
  * identical consecutive symbols merge; a symbol change or sampling gap
  * closes the run). `clipToSequences` assigns instances to the overlapping
  * sequence windows (stateless, identical semantics to the batch
  * `SequenceBuilder`). `windowedEventCounts` is the streaming windowed
  * aggregation producing per-(sequence, event) slot counts, from which the
  * incremental L1 supports follow.
  *
  * Slots are assumed in order per series within the stream (IoT gateway
  * ordering); tests drive a MemoryStream accordingly.
  */
object StreamingTransform {

  /** Merge consecutive identical symbols into instances, streaming. The
    * final open run of each series stays in state until a later slot closes
    * it — feed a terminal sentinel slot to flush (see tests).
    */
  def instanceStream(sym: Dataset[SymSlot], slotWidth: Long = 1L): Dataset[StreamInstance] = {
    import sym.sparkSession.implicits._
    sym.groupByKey(_.series)
      .flatMapGroupsWithState(OutputMode.Append, GroupStateTimeout.NoTimeout) {
        (series: String, slots: Iterator[SymSlot], state: GroupState[OpenRun]) =>
          val ordered = slots.toArray.sortBy(_.t)
          val out = Seq.newBuilder[StreamInstance]
          var open = state.getOption
          for (s <- ordered) {
            open match {
              case Some(run) if run.symbol == s.symbol && s.t == run.lastT + slotWidth =>
                open = Some(run.copy(lastT = s.t))
              case Some(run) =>
                out += StreamInstance(series, run.symbol, run.start, run.lastT + slotWidth)
                open = Some(OpenRun(s.symbol, s.t, s.t))
              case None =>
                open = Some(OpenRun(s.symbol, s.t, s.t))
            }
          }
          open.foreach(state.update)
          out.result().iterator
      }
  }

  /** Assign instances to every sequence window they intersect (see
    * `SequenceBuilder.windows`), clipping at window borders — equivalent to
    * slot-level assignment before merging. Works on streams and batches.
    */
  def clipToSequences(instances: Dataset[StreamInstance], seqLen: Long, tOv: Long,
                      origin: Long = 0L): DataFrame = {
    require(tOv >= 0 && tOv < seqLen, "need 0 <= tOv < seqLen")
    val step = seqLen - tOv
    instances
      .withColumn("seq", explode(SequenceBuilder.windows(col("start"), col("end") - 1, step, seqLen, origin)))
      .select(col("seq").cast("int"), col("series"), col("symbol"),
        greatest(col("start"), col("seq") * step + origin).as("start"),
        least(col("end"), col("seq") * step + seqLen + origin).as("end"))
  }

  /** Streaming windowed aggregation: per (sequence window, series, symbol)
    * slot counts over the raw symbol stream. Event support at L1 is the
    * number of distinct windows in which an event has a positive count —
    * derived from this aggregate by the caller (complete/update sink).
    */
  def windowedEventCounts(sym: Dataset[SymSlot], seqLen: Long, tOv: Long,
                          origin: Long = 0L): DataFrame = {
    require(tOv >= 0 && tOv < seqLen, "need 0 <= tOv < seqLen")
    sym.withColumn("seq", explode(SequenceBuilder.windows(col("t"), col("t"), seqLen - tOv, seqLen, origin)))
      .groupBy(col("seq").cast("int").as("seq"), col("series"), col("symbol"))
      .agg(count(lit(1)).as("slots"))
  }
}
