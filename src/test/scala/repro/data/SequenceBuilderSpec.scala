package repro.data

import scala.util.{Random, Try}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.lit
import org.apache.spark.sql.types.IntegerType
import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkSpec}
import repro.core.{HTPGM, MiningConfig, Pattern, Relation}

class SequenceBuilderSpec extends SparkSpec with PropSupport {

  private def symDf(rows: (String, Long, String)*) = {
    import spark.implicits._
    rows.toDF("series", "t", "symbol")
  }

  private def collected(df: org.apache.spark.sql.DataFrame) =
    df.collect().map(r => (r.getInt(0), r.getString(1), r.getString(2), r.getLong(3), r.getLong(4))).toSet

  test("consecutive identical symbols merge into one instance (Def 3.4)") {
    val df = symDf(("A", 0, "a"), ("A", 1, "a"), ("A", 2, "b"), ("A", 3, "b"), ("A", 4, "a"))
    val out = collected(SequenceBuilder.instances(df, seqLen = 5, tOv = 0))
    assert(out == Set((0, "A", "a", 0L, 2L), (0, "A", "b", 2L, 4L), (0, "A", "a", 4L, 5L)))
  }

  test("a sampling gap splits an instance") {
    val df = symDf(("A", 0, "a"), ("A", 1, "a"), ("A", 5, "a"))
    val out = collected(SequenceBuilder.instances(df, seqLen = 10, tOv = 0))
    assert(out == Set((0, "A", "a", 0L, 2L), (0, "A", "a", 5L, 6L)))
  }

  test("slotWidth scales starts and ends (paper uses 5-minute slots)") {
    val df = symDf(("A", 600, "On"), ("A", 605, "On"), ("A", 610, "Off"))
    val out = collected(SequenceBuilder.instances(df, seqLen = 45, tOv = 0, slotWidth = 5))
    assert(out == Set((13, "A", "On", 600L, 610L), (13, "A", "Off", 610L, 615L)))
  }

  test("slots before origin belong to no sequence") {
    val df = symDf(("A", 95, "On"), ("A", 100, "On"), ("A", 105, "Off"))
    val inst = SequenceBuilder.instances(df, seqLen = 10, tOv = 0, slotWidth = 5, origin = 100)
    assert(collected(inst) == Set((0, "A", "On", 100L, 105L), (0, "A", "Off", 105L, 110L)))
    assert(SequenceBuilder.toLocal(inst).size == 1)
  }

  test("non-overlapping split assigns each slot to exactly one sequence") {
    val df = symDf((0L until 10L).map(t => ("A", t, "a")): _*)
    val out = collected(SequenceBuilder.instances(df, seqLen = 5, tOv = 0))
    assert(out == Set((0, "A", "a", 0L, 5L), (1, "A", "a", 5L, 10L)))
  }

  test("overlapping split duplicates the overlapped slots (Fig. 3b)") {
    val df = symDf((0L until 8L).map(t => ("A", t, "a")): _*)
    // seqLen=4, tOv=2 -> step=2: windows [0,4) [2,6) [4,8) [6,10)
    val out = collected(SequenceBuilder.instances(df, seqLen = 4, tOv = 2))
    assert(out == Set(
      (0, "A", "a", 0L, 4L), (1, "A", "a", 2L, 6L), (2, "A", "a", 4L, 8L), (3, "A", "a", 6L, 8L)))
  }

  /** Instances by run-length encoding each (window, series) directly:
    * window i covers [i·step, i·step + seqLen), and a run continues while
    * the symbol repeats on the next slot.
    */
  private def runLength(rows: Seq[(String, Long, String)], seqLen: Long, tOv: Long, slotWidth: Long) = {
    val step = seqLen - tOv
    val maxT = rows.map(_._2).maxOption.getOrElse(-1L)
    (for {
      i <- 0L to maxT / step
      (series, slots) <- rows.filter(r => r._2 >= i * step && r._2 < i * step + seqLen).groupBy(_._1)
      (symbol, start, end) <- slots.sortBy(_._2).foldLeft(List.empty[(String, Long, Long)]) {
        case ((sym, start, end) :: done, (_, t, s)) if s == sym && t == end => (sym, start, t + slotWidth) :: done
        case (done, (_, t, s)) => (s, t, t + slotWidth) :: done
      }
    } yield (i.toInt, series, symbol, start, end)).toSet
  }

  /** 1–3 series over up to 30 slots of width 1 or 5, a quarter of the slots
    * missing, symbols a/b; a sequence length of 1–6 slots and an overlap
    * below it.
    */
  private val frameGen = for {
    slotWidth <- Gen.oneOf(1L, 5L)
    seqSlots <- Gen.choose(1, 6)
    ovSlots <- Gen.choose(0, seqSlots - 1)
    nSeries <- Gen.choose(1, 3)
    nSlots <- Gen.choose(1, 30)
    cells <- Gen.listOfN(nSeries * nSlots,
      Gen.frequency(1 -> Gen.const(None), 3 -> Gen.oneOf("a", "b").map(Some(_))))
  } yield {
    val rows = for {
      s <- 0 until nSeries; k <- 0 until nSlots
      symbol <- cells(s * nSlots + k)
    } yield (s"S$s", k * slotWidth, symbol)
    (rows, seqSlots * slotWidth, ovSlots * slotWidth, slotWidth)
  }

  test("property: instances equal a run-length reference over gaps, slot widths and overlaps") {
    checkProp(Prop.forAll(frameGen) { case (rows, seqLen, tOv, slotWidth) =>
      collected(SequenceBuilder.instances(symDf(rows: _*), seqLen, tOv, slotWidth)) ==
        runLength(rows, seqLen, tOv, slotWidth)
    }, minTests = 40)
  }

  /** D_SYB slot by slot: each series' symbols in slot order over its sorted
    * alphabet, or, for a series whose slots are not the first series', the
    * rejection naming the smallest slot in one of the two but not both.
    * Slots are distinct within a series, as [[frameGen]] draws them.
    */
  private def slotWise(rows: Seq[(String, Long, String)]): Either[String, Seq[(String, Seq[Int], Seq[String])]] = {
    val series = rows.groupBy(_._1).toSeq.sortBy(_._1).map { case (name, rs) => (name, rs.sortBy(_._2)) }
    val grid = series.headOption.fold(Set.empty[Long])(_._2.map(_._2).toSet)
    series.collectFirst { case (name, rs) if rs.map(_._2).toSet != grid =>
      val slots = rs.map(_._2).toSet
      Left(s"requirement failed: series $name is off the slot grid of series ${series.head._1}: " +
        s"first differing slot ${((slots diff grid) ++ (grid diff slots)).min}")
    }.getOrElse(Right(series.map { case (name, rs) =>
      val alphabet = rs.map(_._3).distinct.sorted
      (name, rs.map(r => alphabet.indexOf(r._3)), alphabet)
    }))
  }

  test("property: instances and toSymbolicDB do not depend on row order or partitioning") {
    import spark.implicits._
    // Rows in random order over 1–5 partitions, so a run arrives in pieces,
    // split across partitions and out of order.
    val gen = for { frame <- frameGen; seed <- Gen.long; parts <- Gen.choose(1, 5) } yield (frame, seed, parts)
    checkProp(Prop.forAllNoShrink(gen) { case ((rows, seqLen, tOv, slotWidth), seed, parts) =>
      val df = spark.sparkContext.parallelize(new Random(seed).shuffle(rows), parts).toDF("series", "t", "symbol")
      val symbolic = Try(SequenceBuilder.toSymbolicDB(df)).toEither
        .map(_.series.map(s => (s.name, s.symbols.toSeq, s.alphabet))).left.map(_.getMessage)
      collected(SequenceBuilder.instances(df, seqLen, tOv, slotWidth)) == runLength(rows, seqLen, tOv, slotWidth) &&
        symbolic == slotWise(rows)
    }, minTests = 40)
  }

  test("splitting-loss demo: overlap preserves a pattern cut by the split point (Fig. 3)") {
    // A activates right before the t=5 boundary, B right after
    val base = (0L until 10L).map(t => ("B", t, if (t >= 5 && t < 7) "On" else "Off")) ++
      (0L until 10L).map(t => ("A", t, if (t >= 3 && t < 5) "On" else "Off"))

    val lost = SequenceBuilder.toLocal(SequenceBuilder.instances(symDf(base: _*), 5, 0))
    val aOn = lost.eventNames.indexOf("A=On"); val bOn = lost.eventNames.indexOf("B=On")
    val followAB = HTPGM.mine(lost, MiningConfig(sigma = 0.5, delta = 0.1, maxLevel = 2))
    assert(!followAB.patterns.keys.exists(p => p.events == Vector(aOn, bOn)),
      "without overlap the A->B pattern must be lost")

    val kept = SequenceBuilder.toLocal(SequenceBuilder.instances(symDf(base: _*), 5, 4))
    val a2 = kept.eventNames.indexOf("A=On"); val b2 = kept.eventNames.indexOf("B=On")
    val res2 = HTPGM.mine(kept, MiningConfig(sigma = 0.1, delta = 0.1, maxLevel = 2))
    assert(res2.patterns.contains(Pattern.pair(a2, Relation.Follow, b2)),
      "with overlap >= pattern span the A->B pattern is preserved")
  }

  test("toLocal builds sorted dictionaries and dense sequence ids") {
    val df = symDf(("B", 0, "x"), ("B", 1, "y"), ("A", 0, "x"), ("A", 1, "x"),
                   ("B", 5, "x"), ("A", 5, "y"))
    val db = SequenceBuilder.toLocal(SequenceBuilder.instances(df, 5, 0))
    assert(db.seriesNames == Vector("A", "B"))
    assert(db.eventNames == Vector("A=x", "A=y", "B=x", "B=y"))
    assert(db.eventSeries == Vector(0, 0, 1, 1))
    assert(db.sequences.map(_.id) == Vector(0, 1))
    // instances chronologically sorted within each sequence
    for (s <- db.sequences)
      assert(s.instances.toSeq == s.instances.toSeq.sorted(repro.core.Instance.chrono))
  }

  test("fromRows deduplicates identical rows") {
    val db = SequenceBuilder.fromRows(Seq(
      (0, "A", "a", 0L, 2L), (0, "A", "a", 0L, 2L), (0, "A", "b", 2L, 3L)))
    assert(db.sequences(0).instances.length == 2)
  }

  test("fromRows takes an event's series from its row, so series names may contain '='") {
    val db = SequenceBuilder.fromRows(Seq((0, "a=b", "On", 0L, 2L), (0, "c", "Off", 1L, 3L)))
    assert(db.eventNames == Vector("a=b=On", "c=Off"))
    assert(db.eventSeries == Vector(0, 1))
    // with a series "a" present too, "a=b=On" still belongs to "a=b"
    val both = SequenceBuilder.fromRows(Seq((0, "a", "x", 0L, 2L), (0, "a=b", "On", 1L, 3L)))
    assert(both.seriesNames == Vector("a", "a=b"))
    assert(both.eventNames == Vector("a=b=On", "a=x"))
    assert(both.eventSeries == Vector(1, 0))
  }

  test("toSymbolicDB aligns series by slot and rejects a series off the first series' slots") {
    val a = Seq(("A", 0L, "On"), ("A", 1L, "Off"), ("A", 2L, "On"))
    def offGrid(rows: (String, Long, String)*) =
      intercept[IllegalArgumentException](SequenceBuilder.toSymbolicDB(symDf(rows: _*))).getMessage
    // same readings one slot later: not the same series
    val shifted = offGrid(a ++ Seq(("B", 1L, "On"), ("B", 2L, "Off"), ("B", 3L, "On")): _*)
    assert(shifted.contains("series B") && shifted.contains("slot 0"), shifted)
    val missing = offGrid(a ++ Seq(("B", 0L, "On"), ("B", 2L, "On")): _*)
    assert(missing.contains("series B") && missing.contains("slot 1"), missing)
    val repeated = offGrid(a ++ Seq(("B", 0L, "On"), ("B", 1L, "Off"), ("B", 1L, "Off"), ("B", 2L, "On")): _*)
    assert(repeated.contains("series B") && repeated.contains("slot 1"), repeated)
    val firstRepeats = offGrid(a ++ Seq(("A", 2L, "On"), ("B", 0L, "On")): _*)
    assert(firstRepeats.contains("series A") && firstRepeats.contains("slot 2"), firstRepeats)
    // rows out of order, on the grid
    val db = SequenceBuilder.toSymbolicDB(symDf(
      a.reverse ++ Seq(("B", 2L, "Off"), ("B", 0L, "Off"), ("B", 1L, "On")): _*))
    assert(db.series.map(_.symbols.toSeq) == Seq(Seq(1, 0, 1), Seq(0, 1, 0)))
  }

  test("instances validates the overlap range") {
    val df = symDf(("A", 0, "a"))
    def rejected(seqLen: Long, tOv: Long, slotWidth: Long) =
      intercept[IllegalArgumentException](SequenceBuilder.instances(df, seqLen, tOv, slotWidth)).getMessage
    for ((seqLen, tOv, slotWidth, names) <- Seq(
        (5L, 5L, 1L, Seq("tOv=5", "seqLen=5")),
        (5L, -1L, 1L, Seq("tOv=-1", "seqLen=5")),
        (10L, 0L, 0L, Seq("slotWidth=0")),
        (10L, 0L, -5L, Seq("slotWidth=-5")),
        (10L, 0L, 3L, Seq("seqLen=10", "tOv=0", "slotWidth=3")),
        (10L, 1L, 5L, Seq("seqLen=10", "tOv=1", "slotWidth=5")))) {
      val msg = rejected(seqLen, tOv, slotWidth)
      assert(names.forall(msg.contains), msg)
    }
  }

  /** `df` with column `c` null in every row. */
  private def nulled(df: DataFrame, c: String) = df.withColumn(c, lit(null).cast(df.schema(c).dataType))

  test("a null fails naming its column: instances + toLocal, toSymbolicDB, toLocal and fromRows") {
    val sym = symDf(("A", 0, "a"), ("A", 1, "b"), ("B", 0, "a"), ("B", 1, "a"))
    for (c <- Seq("series", "t", "symbol")) {
      val bad = nulled(sym, c)
      val viaInstances = rejected(SequenceBuilder.toLocal(SequenceBuilder.instances(bad, 2, 0))).getMessage
      assert(viaInstances.contains(s"null $c in"), viaInstances)
      val viaSymbolic = rejected(SequenceBuilder.toSymbolicDB(bad)).getMessage
      assert(viaSymbolic.contains(s"null $c in"), viaSymbolic)
    }
    val inst = SequenceBuilder.instances(sym, 2, 0)
    for (c <- SequenceBuilder.InstanceColumns) {
      val msg = rejected(SequenceBuilder.toLocal(nulled(inst, c))).getMessage
      assert(msg.contains(s"null $c in"), msg)
    }
    val series = rejected(SequenceBuilder.fromRows(Seq((0, "A", "a", 0L, 1L), (0, null, "a", 0L, 1L)))).getMessage
    assert(series.contains("null series in"), series)
    val symbol = rejected(SequenceBuilder.fromRows(Seq((0, "A", null, 0L, 1L)))).getMessage
    assert(symbol.contains("null symbol in"), symbol)
  }

  test("an INT slot column gives the same instances and D_SYB as a BIGINT one") {
    import spark.implicits._
    val rows = Seq(("B", 0, "x"), ("B", 1, "y"), ("A", 0, "x"), ("A", 1, "x"), ("B", 2, "x"), ("A", 2, "y"))
    val int = rows.toDF("series", "t", "symbol")
    val long = symDf(rows.map { case (s, t, y) => (s, t.toLong, y) }: _*)
    assert(int.schema("t").dataType == IntegerType)
    assert(collected(SequenceBuilder.instances(int, 2, 0)) == collected(SequenceBuilder.instances(long, 2, 0)))
    def dSyb(df: DataFrame) = SequenceBuilder.toSymbolicDB(df).series.map(s => (s.name, s.symbols.toSeq, s.alphabet))
    assert(dSyb(int) == dSyb(long))
  }

  test("a missing reading splits the run, and toSymbolicDB rejects the missing slot") {
    import spark.implicits._
    val raw = Seq(("A", 0L, Some(1.0)), ("A", 1L, Some(1.0)), ("A", 2L, Some(1.0)),
      ("B", 0L, Some(1.0)), ("B", 1L, None), ("B", 2L, Some(1.0))).toDF("series", "t", "value")
    val sym = Symbolizer.byThreshold(raw)
    assert(collected(SequenceBuilder.instances(sym, seqLen = 3, tOv = 0)) ==
      Set((0, "A", "On", 0L, 3L), (0, "B", "On", 0L, 1L), (0, "B", "On", 2L, 3L)))
    val msg = intercept[IllegalArgumentException](SequenceBuilder.toSymbolicDB(sym)).getMessage
    assert(msg.contains("series B") && msg.contains("slot 1"), msg)
  }
}
