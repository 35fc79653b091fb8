package repro.data

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{Instance, SequenceDB, TemporalSequence}
import repro.mi.{SymbolicDB, SymbolicSeries}
import scala.collection.immutable.ArraySeq

/** Temporal sequence database conversion (Section IV.B.2).
  *
  * A symbolic DataFrame `(series, t, symbol)` (with `t` a slot start in
  * units of `slotWidth`) is split into fixed-length sequences of
  * `seqLen` time units, two consecutive sequences overlapping by `tOv`
  * (0 ≤ tOv < seqLen; tOv = t_max preserves every pattern, Fig. 3).
  * Within each (sequence, series), runs of identical consecutive symbols
  * are merged into event instances `[start, end)` (end-exclusive — the
  * cosmetic difference to the paper's Table III closed intervals is
  * documented in DESIGN.md §3).
  */
object SequenceBuilder {

  /** Columns of the instance DataFrame produced by [[instances]]. */
  val InstanceColumns: Seq[String] = Seq("seq", "series", "symbol", "start", "end")

  /** Assign each slot to every sequence window covering it and merge runs
    * into instances. Window i ≥ 0 covers `[origin + i·step, origin + i·step
    * + seqLen)` with `step = seqLen − tOv`, so slot `t` is in windows
    * `max(0, floor((t − origin − seqLen) / step) + 1)` to
    * `floor((t − origin) / step)`, and a slot before `origin` is in none.
    * Pure DataFrame/Catalyst: an `explode` of the window ids for the overlap
    * fan-out, then one `row_number` window for the merge
    * (gaps and islands). Inside a (seq, series, symbol) partition ordered by
    * `t`, `t - row_number * slotWidth` is constant over a run of consecutive
    * slots and grows at a symbol change or a sampling gap, so it names the
    * run. Slots of one series must be distinct and at least `slotWidth`
    * apart.
    */
  def instances(sym: DataFrame, seqLen: Long, tOv: Long, slotWidth: Long = 1L,
                origin: Long = 0L): DataFrame = {
    require(slotWidth > 0, s"need slotWidth > 0 (got slotWidth=$slotWidth)")
    require(tOv >= 0 && tOv < seqLen, s"need 0 <= tOv < seqLen (got tOv=$tOv seqLen=$seqLen)")
    require(seqLen % slotWidth == 0 && tOv % slotWidth == 0,
      s"seqLen and tOv must be multiples of slotWidth (got seqLen=$seqLen tOv=$tOv slotWidth=$slotWidth)")
    val step = seqLen - tOv
    val t = col("t") - origin
    val lo = greatest(lit(0L), floor((t - seqLen).cast("double") / step).cast("long") + 1L)
    val hi = floor(t.cast("double") / step).cast("long")
    val assigned = sym.withColumn("seq", explode(when(t >= 0, sequence(lo, hi))))

    val w = Window.partitionBy("seq", "series", "symbol").orderBy("t")
    assigned
      .withColumn("grp", col("t") - row_number().over(w) * slotWidth)
      .groupBy("seq", "series", "symbol", "grp")
      .agg(min("t").as("start"), (max("t") + slotWidth).as("end"))
      .select(col("seq").cast("int"), col("series"), col("symbol"), col("start"), col("end"))
  }

  /** Collect an instance DataFrame into the local [[SequenceDB]] used by
    * the driver-side miners and baselines. Event ids follow [[eventOrder]];
    * sequence ids are densified.
    */
  def toLocal(instDf: DataFrame): SequenceDB = {
    val rows = instDf.select("seq", "series", "symbol", "start", "end").collect()
    fromRows(ArraySeq.unsafeWrapArray(rows.map(r => (r.getInt(0), r.getString(1), r.getString(2), r.getLong(3), r.getLong(4)))))
  }

  /** The event dictionary of an instance frame, in [[eventOrder]], queried
    * without collecting the instances.
    */
  def events(instDf: DataFrame): IndexedSeq[(String, String)] =
    eventOrder(instDf.select("series", "symbol").distinct().collect().map(r => (r.getString(0), r.getString(1))))

  /** The printable name `"series=symbol"` of an event `(series, symbol)`. */
  def eventName(event: (String, String)): String = s"${event._1}=${event._2}"

  /** The event dictionary: the distinct `(series, symbol)` pairs in event-id
    * order, sorted by printable name `"series=symbol"`. Two events can print
    * alike (series `a` with symbol `b=c`, series `a=b` with symbol `c`); the
    * series breaks that tie, so every caller numbers events the same way.
    */
  def eventOrder(events: Iterable[(String, String)]): IndexedSeq[(String, String)] =
    events.toIndexedSeq.distinct.sortBy(e => (eventName(e), e._1))

  /** The series dictionary: the distinct series names in series-id order,
    * sorted, so a series id is its rank among them. `SequenceDB`'s series,
    * the `SymbolicDB`'s and the `CorrelationGraph`'s vertices all follow it.
    */
  def seriesOrder(names: Iterable[String]): IndexedSeq[String] = names.toIndexedSeq.distinct.sorted

  /** A row of D_SEQ: the distinct instances, in [[Instance.chrono]] order. */
  def temporalSequence(id: Int, instances: Iterable[Instance]): TemporalSequence =
    TemporalSequence(id, instances.toArray.distinct.sorted(Instance.chrono))

  /** Local constructor of [[toLocal]], also used by tests. */
  def fromRows(rows: Seq[(Int, String, String, Long, Long)]): SequenceDB = {
    val seriesNames = seriesOrder(rows.map(_._2))
    val seriesIdx = seriesNames.zipWithIndex.toMap
    val events = eventOrder(rows.map(r => (r._2, r._3)))
    val eventIdx = events.zipWithIndex.toMap
    val eventNames = events.map(eventName)
    val eventSeries = events.map { case (s, _) => seriesIdx(s) }
    val seqIds = rows.map(_._1).distinct.sorted
    val seqDense = seqIds.zipWithIndex.toMap
    val bySeq = rows.groupBy(r => seqDense(r._1))
    val sequences = seqIds.indices.map { i =>
      temporalSequence(i, bySeq.getOrElse(i, Seq.empty).map(r => Instance(eventIdx((r._2, r._3)), r._4, r._5)))
    }
    SequenceDB(sequences.toIndexedSeq, eventNames, eventSeries, seriesNames)
  }

  /** Collect a symbolic DataFrame into the local aligned [[SymbolicDB]]
    * needed by the MI computation. Series are aligned by slot `t`: every
    * series must have exactly the sorted slots of the first series (by
    * name), each once, or this fails naming the series and the first slot
    * that differs.
    */
  def toSymbolicDB(sym: DataFrame): SymbolicDB = {
    val rows = sym.select("series", "t", "symbol").collect()
      .map(r => (r.getString(0), r.getLong(1), r.getString(2)))
    val byS = rows.groupBy(_._1)
    val names = seriesOrder(byS.keys)
    val slots = names.map(name => byS(name).sortBy(_._2))
    val grid = slots.headOption.fold(Array.empty[Long])(_.map(_._2))
    for (i <- 1 until grid.length)
      require(grid(i) != grid(i - 1), s"series ${names.head} repeats slot ${grid(i)}")
    val series = names.lazyZip(slots).map { (name, ss) =>
      val ts = ss.map(_._2)
      val i = java.util.Arrays.mismatch(ts, grid)
      require(i < 0, {
        val slot = if (i == ts.length) grid(i) else if (i == grid.length) ts(i) else math.min(ts(i), grid(i))
        s"series $name is off the slot grid of series ${names.head}: first differing slot $slot"
      })
      val alphabet = ss.map(_._3).distinct.sorted.toIndexedSeq
      val dict = alphabet.zipWithIndex.toMap
      SymbolicSeries(name, ss.map(s => dict(s._3)).toArray, alphabet)
    }
    SymbolicDB(series)
  }
}
