package repro.stream

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.data.{PaperExample, SequenceBuilder}

/** Streaming front-end == batch pipeline on the same input. */
class StreamingSpec extends SparkSpec {
  import spark.implicits._

  /** Run the run-merging stream over `slots` (delivered in `chunks` pieces),
    * returning the closed instances. A terminal "EOS" sentinel slot per
    * series flushes the last real run; sentinel instances are dropped.
    */
  private def runInstanceStream(slots: Seq[SymSlot], chunks: Int,
                                slotWidth: Long = 1L): Set[StreamInstance] = {
    val input = MemoryStream[SymSlot](spark)
    val out = StreamingTransform.instanceStream(input.toDS(), slotWidth)
    val name = s"inst_${System.nanoTime()}"
    val query = out.writeStream.format("memory").queryName(name).outputMode("append").start()
    try {
      val maxT = slots.map(_.t).max
      val sentinel = slots.map(_.series).distinct.map(s => SymSlot(s, maxT + slotWidth, "EOS"))
      val all = slots ++ sentinel
      val size = math.max(1, all.size / chunks)
      all.grouped(size).foreach { chunk => input.addData(chunk); query.processAllAvailable() }
      spark.table(name).as[StreamInstance].collect().toSet.filter(_.symbol != "EOS")
    } finally query.stop()
  }

  private def batchInstances(slots: Seq[SymSlot], seqLen: Long, tOv: Long,
                             slotWidth: Long = 1L, origin: Long = 0L): Set[(Int, String, String, Long, Long)] =
    SequenceBuilder.instances(slots.toDF("series", "t", "symbol"), seqLen, tOv, slotWidth, origin)
      .collect().map(r => (r.getInt(0), r.getString(1), r.getString(2), r.getLong(3), r.getLong(4)))
      .toSet

  private val tiny = Seq(
    SymSlot("A", 0, "a"), SymSlot("A", 1, "a"), SymSlot("A", 2, "b"),
    SymSlot("B", 0, "x"), SymSlot("B", 1, "y"), SymSlot("B", 2, "y"))

  test("run-merging: consecutive identical symbols close on change") {
    val got = runInstanceStream(tiny, chunks = 1)
    assert(got == Set(
      StreamInstance("A", "a", 0, 2), StreamInstance("A", "b", 2, 3),
      StreamInstance("B", "x", 0, 1), StreamInstance("B", "y", 1, 3)))
  }

  test("state carries runs across micro-batches") {
    // chunked so that A's run of 'a' spans two batches
    val got1 = runInstanceStream(tiny, chunks = 1)
    val got3 = runInstanceStream(tiny, chunks = 3)
    assert(got1 == got3)
  }

  test("a sampling gap closes the run mid-stream") {
    val slots = Seq(SymSlot("A", 0, "a"), SymSlot("A", 1, "a"), SymSlot("A", 5, "a"))
    val got = runInstanceStream(slots, chunks = 2)
    assert(got == Set(StreamInstance("A", "a", 0, 2), StreamInstance("A", "a", 5, 6)))
  }

  test("streamed instances + clipping == batch SequenceBuilder on the paper example") {
    val slots = PaperExample.symbolic(spark).as[SymSlot].collect().toSeq
      .sortBy(s => (s.series, s.t))
    val streamed = runInstanceStream(slots, chunks = 4, slotWidth = PaperExample.SlotWidth)
    val clipped = StreamingTransform
      .clipToSequences(streamed.toSeq.toDS(), PaperExample.SeqLen, 0L, origin = PaperExample.Origin)
      .collect().map(r => (r.getInt(0), r.getString(1), r.getString(2), r.getLong(3), r.getLong(4)))
      .toSet
    val batch = batchInstances(slots, PaperExample.SeqLen, 0L, PaperExample.SlotWidth,
                               origin = PaperExample.Origin)
    assert(clipped == batch)
  }

  test("clipping with overlap equals the batch overlapped split") {
    val slots = (0L until 8L).map(t => SymSlot("A", t, "a"))
    val streamed = runInstanceStream(slots, chunks = 2)
    val clipped = StreamingTransform.clipToSequences(streamed.toSeq.toDS(), 4L, 2L)
      .collect().map(r => (r.getInt(0), r.getString(1), r.getString(2), r.getLong(3), r.getLong(4)))
      .toSet
    assert(clipped == batchInstances(slots, 4L, 2L))
  }

  test("slots and instances before origin belong to no sequence window") {
    val slots = Seq(SymSlot("A", 95, "On"), SymSlot("A", 100, "On"), SymSlot("A", 105, "Off"))
    val counts = StreamingTransform.windowedEventCounts(slots.toDS(), 10L, 0L, origin = 100L)
      .collect().map(r => (r.getInt(0), r.getString(1), r.getString(2), r.getLong(3))).toSet
    assert(counts == Set((0, "A", "On", 1L), (0, "A", "Off", 1L)))
    val insts = Seq(StreamInstance("A", "Off", 90, 100), StreamInstance("A", "On", 95, 105))
    val clipped = StreamingTransform.clipToSequences(insts.toDS(), 10L, 0L, origin = 100L)
      .collect().map(r => (r.getInt(0), r.getString(1), r.getString(2), r.getLong(3), r.getLong(4))).toSet
    assert(clipped == Set((0, "A", "On", 100L, 105L)))
  }

  test("windowed aggregation yields the incremental L1 supports") {
    val slots = PaperExample.symbolic(spark).as[SymSlot].collect().toSeq
    val input = MemoryStream[SymSlot](spark)
    val agg = StreamingTransform.windowedEventCounts(
      input.toDS(), PaperExample.SeqLen, 0L, origin = PaperExample.Origin)
    val name = s"l1_${System.nanoTime()}"
    val query = agg.writeStream.format("memory").queryName(name).outputMode("complete").start()
    try {
      slots.grouped(60).foreach { chunk => input.addData(chunk); query.processAllAvailable() }
      val supports = spark.table(name)
        .where($"slots" > 0)
        .select(concat($"series", lit("="), $"symbol").as("event"), $"seq")
        .distinct().groupBy("event").count()
        .collect().map(r => r.getString(0) -> r.getLong(1).toInt).toMap
      val db = PaperExample.sequenceDB(spark)
      val want = db.eventBitmaps.map { case (e, b) => db.eventNames(e) -> b.cardinality }
      assert(supports == want)
      // the paper's Section IV.D facts hold incrementally too
      assert(supports("K=On") == 4 && supports("I=On") == 2)
    } finally query.stop()
  }
}
