package repro.data

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.execution.QueryExecution
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

  /** A row of an instance frame: `(seq, series, symbol, start, end)`. */
  type InstanceRow = (Int, String, String, Long, Long)

  private val SlotSchema = StructType.fromDDL("series STRING, t BIGINT, symbol STRING")
  private val InstanceSchema = StructType.fromDDL("seq INT, series STRING, symbol STRING, start BIGINT, `end` BIGINT")
  private[repro] val InstanceColumns = InstanceSchema.fieldNames

  /** The plan of `df`'s columns of `schema`, cast to its types, whose
    * `InternalRow`s every read decodes. An INT slot column is read as BIGINT.
    */
  private def plan(df: DataFrame, schema: StructType): QueryExecution =
    df.select(schema.map(f => col(f.name).cast(f.dataType)): _*).queryExecution

  /** Fail naming the first of a row's `schema` columns that `isNullAt`: read
    * as an `InternalRow`, a null number would otherwise read as 0.
    */
  private def requireNonNull(schema: StructType)(isNullAt: Int => Boolean): Unit =
    for (i <- schema.indices)
      require(!isNullAt(i), s"null ${schema(i).name} in a row of (${schema.fieldNames.mkString(", ")})")

  /** An `InternalRow` of `plan(_, InstanceSchema)`; a null fails naming its column. */
  private def instance(r: InternalRow): InstanceRow = {
    requireNonNull(InstanceSchema)(r.isNullAt)
    (r.getInt(0), r.getUTF8String(1).toString, r.getUTF8String(2).toString, r.getLong(3), r.getLong(4))
  }

  /** The runs of each partition of `sym` at slot width `w`, merged in row
    * order with one open run per series: a slot extends its series' open run
    * iff it has the run's symbol and starts exactly at the run's end, so a
    * gap, a symbol change or a repeated slot starts a new run. A run that
    * the partitioning or the row order splits comes out in pieces. A null
    * fails naming its column.
    */
  private def runs(sym: DataFrame, w: Long): RDD[Run] =
    plan(sym, SlotSchema).toRdd.mapPartitions { rows =>
      val open = mutable.HashMap.empty[String, Run]
      val done = mutable.ArrayBuffer.empty[Run]
      for (r <- rows) {
        requireNonNull(SlotSchema)(r.isNullAt)
        val (series, t, symbol) = (r.getUTF8String(0).toString, r.getLong(1), r.getUTF8String(2).toString)
        open.get(series) match {
          case Some(run) if run.end == t && run.symbol == symbol => run.end = t + w
          case last => done ++= last; open(series) = Run(series, symbol, t, t + w)
        }
      }
      (done ++= open.values).iterator
    }

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
    * the driver-side miners and baselines: the rows of its plan are collected
    * as they are stored and decoded on the driver. Event and series ids
    * follow the [[Dictionary]]; sequence ids are densified.
    */
  def toLocal(instDf: DataFrame): SequenceDB =
    fromRows(ArraySeq.unsafeWrapArray(plan(instDf, InstanceSchema).executedPlan.executeCollect().map(instance)))

  /** D_SEQ of an instance frame, left distributed: its dictionary, each
    * sequence's events in ascending sequence id (the L1 presence), and the
    * sequences. The frame is read once, as the rows of its plan, and shuffled
    * once, grouping its instances by sequence into `sc.defaultParallelism`
    * partitions whatever the frame's partitioning. One job collects each
    * sequence's distinct events, from which the driver builds the
    * dictionary; the sequences are mapped from the same shuffle output, so
    * the frame is computed once even when it is not cached. A null fails
    * naming its column.
    */
  private[repro] def distributed(instDf: DataFrame): (Dictionary, IndexedSeq[Array[Int]], RDD[TemporalSequence]) = {
    val bySeq = plan(instDf, InstanceSchema).toRdd.map(instance)
      .groupBy(_._1, instDf.sparkSession.sparkContext.defaultParallelism)
    val events = bySeq.mapValues(_.map(r => (r._2, r._3)).toArray.distinct).collect().sortBy(_._1).toIndexedSeq.map(_._2)
    val dict = new Dictionary(events.iterator.flatten)
    (dict, events.map(_.map(dict.id)), bySeq.map { case (id, rows) => dict.sequence(id, rows) })
  }

  /** The event and series dictionaries of D_SEQ. Event ids number the
    * distinct `(series, symbol)` events sorted by printable name
    * `"series=symbol"`. Two events can print alike (series `a` with symbol
    * `b=c`, series `a=b` with symbol `c`); the series breaks that tie. Series
    * ids number the distinct series sorted by name, as the `SymbolicDB`'s
    * series and so the `CorrelationGraph`'s vertices are.
    */
  private[repro] final class Dictionary(events: IterableOnce[(String, String)]) extends Serializable {
    private val sorted = events.iterator.distinct.toIndexedSeq.sortBy { case (series, symbol) => (s"$series=$symbol", series) }
    private val ids = sorted.zipWithIndex.toMap
    val eventNames: IndexedSeq[String] = sorted.map { case (series, symbol) => s"$series=$symbol" }
    val seriesNames: IndexedSeq[String] = sorted.map(_._1).distinct.sorted
    val eventSeries: IndexedSeq[Int] = {
      val seriesIds = seriesNames.zipWithIndex.toMap
      sorted.map(e => seriesIds(e._1))
    }

    def id(event: (String, String)): Int = ids(event)

    /** Sequence `id` of D_SEQ from its rows: their distinct instances, in [[Instance.chrono]] order. */
    def sequence(id: Int, rows: Iterable[InstanceRow]): TemporalSequence =
      TemporalSequence(id, rows.iterator.map(r => Instance(ids((r._2, r._3)), r._4, r._5)).toArray.distinct.sorted(Instance.chrono))
  }

  /** Local constructor of [[toLocal]], also used by tests; a null series or symbol fails naming its column. */
  def fromRows(rows: Seq[InstanceRow]): SequenceDB = {
    for (r <- rows) requireNonNull(InstanceSchema)(i => (i == 1 || i == 2) && r.productElement(i) == null)
    val dict = new Dictionary(rows.iterator.map(r => (r._2, r._3)))
    val bySeq = rows.groupBy(_._1)
    val sequences = bySeq.keys.toIndexedSeq.sorted.zipWithIndex.map { case (seq, i) => dict.sequence(i, bySeq(seq)) }
    SequenceDB(sequences, dict.eventNames, dict.eventSeries, dict.seriesNames)
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
    val names = byS.keys.toIndexedSeq.sorted // the Dictionary's series order
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
