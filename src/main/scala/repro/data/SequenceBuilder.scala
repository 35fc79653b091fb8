package repro.data

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.StructType
import repro.core.{Instance, SequenceDB, TemporalSequence}
import repro.mi.{SymbolicDB, SymbolicSeries}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

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

  /** Consecutive slots `[start, end)` of one series holding one symbol. */
  private final case class Run(series: String, symbol: String, start: Long, var end: Long)

  /** The runs of each partition of `sym` at slot width `w`, merged in row
    * order with one open run per series: a slot extends its series' open run
    * iff it has the run's symbol and starts exactly at the run's end, so a
    * gap, a symbol change or a repeated slot starts a new run. A run that
    * the partitioning or the row order splits comes out in pieces. An INT
    * slot column is read as BIGINT; a null fails naming its column.
    */
  private def runs(sym: DataFrame, w: Long): RDD[Run] =
    sym.select(col("series"), col("t").cast("long"), col("symbol")).rdd.mapPartitions { rows =>
      val open = mutable.HashMap.empty[String, Run]
      val done = mutable.ArrayBuffer.empty[Run]
      for (r <- rows) {
        requireNonNull(SlotColumns)(r.isNullAt)
        val (series, t, symbol) = (r.getString(0), r.getLong(1), r.getString(2))
        open.get(series) match {
          case Some(run) if run.end == t && run.symbol == symbol => run.end = t + w
          case last => done ++= last; open(series) = Run(series, symbol, t, t + w)
        }
      }
      (done ++= open.values).iterator
    }

  private val SlotColumns = Array("series", "t", "symbol")
  private val InstanceSchema = StructType.fromDDL("seq INT, series STRING, symbol STRING, start BIGINT, `end` BIGINT")
  private[repro] val InstanceColumns = InstanceSchema.fieldNames

  /** Fail naming the first of a row's `columns` that `isNullAt`. */
  private[repro] def requireNonNull(columns: Array[String])(isNullAt: Int => Boolean): Unit =
    for (i <- columns.indices) require(!isNullAt(i), s"null ${columns(i)} in a row of (${columns.mkString(", ")})")

  /** `instDf`'s [[InstanceColumns]], cast to the types [[instances]] writes. */
  private[repro] def instanceColumns(instDf: DataFrame): DataFrame =
    instDf.select(InstanceSchema.fields.toSeq.map(f => col(f.name).cast(f.dataType)): _*)

  /** Assign each slot to every sequence window covering it and merge runs
    * into instances `(seq, series, symbol, start, end)`. Window i ≥ 0 covers
    * `[origin + i·step, origin + i·step + seqLen)` with `step = seqLen − tOv`,
    * so slot `t` is in windows `max(0, floor((t − origin − seqLen) / step) + 1)`
    * to `floor((t − origin) / step)`, and a slot before `origin` is in none.
    * Each partition merges its slots into runs, and cuts each run at the
    * window edges into one piece per window; only the pieces are shuffled,
    * and the pieces of one (seq, series, symbol) that touch end to start are
    * merged again. Slots of one series must be distinct and at least
    * `slotWidth` apart.
    */
  def instances(sym: DataFrame, seqLen: Long, tOv: Long, slotWidth: Long = 1L,
                origin: Long = 0L): DataFrame = {
    require(slotWidth > 0, s"need slotWidth > 0 (got slotWidth=$slotWidth)")
    require(tOv >= 0 && tOv < seqLen, s"need 0 <= tOv < seqLen (got tOv=$tOv seqLen=$seqLen)")
    require(seqLen % slotWidth == 0 && tOv % slotWidth == 0,
      s"seqLen and tOv must be multiples of slotWidth (got seqLen=$seqLen tOv=$tOv slotWidth=$slotWidth)")
    val step = seqLen - tOv
    // The first slot at or after x of a run whose slots start at t.
    def from(t: Long, x: Long) = if (t >= x) t else t + (x - t + slotWidth - 1) / slotWidth * slotWidth
    val pieces = runs(sym, slotWidth).flatMap { case Run(series, symbol, start, end) =>
      val first = from(start, origin)
      (math.max(0L, Math.floorDiv(first - origin - seqLen, step) + 1) to
        Math.floorDiv(end - slotWidth - origin, step)).iterator.map { i =>
        val lo = origin + i * step
        ((i.toInt, series, symbol), (from(first, lo), math.min(end, from(first, lo + seqLen))))
      }
    }
    val merged = pieces.groupByKey(sym.sparkSession.sparkContext.defaultParallelism).flatMap {
      case ((seq, series, symbol), ps) =>
        ps.toArray.sortBy(_._1).foldLeft(List.empty[(Long, Long)]) {
          case ((start, end) :: done, (s, e)) if s == end => (start, e) :: done
          case (done, p) => p :: done
        }.map { case (start, end) => Row(seq, series, symbol, start, end) }
    }
    sym.sparkSession.createDataFrame(merged, InstanceSchema)
  }

  /** Collect an instance DataFrame into the local [[SequenceDB]] used by
    * the driver-side miners and baselines. Event ids follow [[eventOrder]];
    * sequence ids are densified.
    */
  def toLocal(instDf: DataFrame): SequenceDB = {
    val rows = instanceColumns(instDf).collect()
    rows.foreach(r => requireNonNull(InstanceColumns)(r.isNullAt))
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

  /** Local constructor of [[toLocal]], also used by tests; a null series or symbol fails naming its column. */
  def fromRows(rows: Seq[(Int, String, String, Long, Long)]): SequenceDB = {
    for (r <- rows) requireNonNull(InstanceColumns)(i => (i == 1 || i == 2) && r.productElement(i) == null)
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
    * that differs. Every slot is in it, also one before the `origin` of an
    * [[instances]] split. One job collects the runs of width-1 slots, not
    * the slots, and each series' runs are expanded straight into its slot
    * and symbol arrays.
    */
  def toSymbolicDB(sym: DataFrame): SymbolicDB = {
    val byS = runs(sym, 1L).collect().groupBy(_.series)
    val names = seriesOrder(byS.keys)
    val slots = names.map(name => expand(byS(name)))
    val grid = slots.headOption.fold(Array.empty[Long])(_._1)
    for (i <- 1 until grid.length)
      require(grid(i) != grid(i - 1), s"series ${names.head} repeats slot ${grid(i)}")
    val series = names.lazyZip(slots).map { case (name, (ts, symbols, alphabet)) =>
      val i = java.util.Arrays.mismatch(ts, grid)
      require(i < 0, {
        val slot = if (i == ts.length) grid(i) else if (i == grid.length) ts(i) else math.min(ts(i), grid(i))
        s"series $name is off the slot grid of series ${names.head}: first differing slot $slot"
      })
      SymbolicSeries(name, symbols, alphabet)
    }
    SymbolicDB(series)
  }

  /** One series' width-1 runs as its sorted slots, their symbol ids and its sorted alphabet. */
  private def expand(runs: Array[Run]): (Array[Long], Array[Int], IndexedSeq[String]) = {
    val alphabet = runs.map(_.symbol).distinct.sorted.toIndexedSeq
    val dict = alphabet.zipWithIndex.toMap
    val ts = new Array[Long](runs.iterator.map(r => (r.end - r.start).toInt).sum)
    val symbols = new Array[Int](ts.length)
    var i = 0
    for (r <- runs.sortBy(_.start)) {
      val s = dict(r.symbol)
      var t = r.start
      while (t < r.end) { ts(i) = t; symbols(i) = s; i += 1; t += 1 }
    }
    // Runs overlap only where a slot repeats, which toSymbolicDB rejects
    // whatever the symbols; sorting the slots keeps its message the same.
    java.util.Arrays.sort(ts)
    (ts, symbols, alphabet)
  }
}
