package repro.data

import repro.SparkSpec
import repro.core.{HTPGM, MiningConfig, Pattern, Relation}

class SequenceBuilderSpec extends SparkSpec {

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

  test("splitting-loss demo: overlap preserves a pattern cut by the split point (Fig. 3)") {
    // A activates right before the t=5 boundary, B right after
    val base = (0L until 10L).map(t => ("B", t, if (t >= 5 && t < 7) "On" else "Off")) ++
      (0L until 10L).map(t => ("A", t, if (t >= 3 && t < 5) "On" else "Off"))
    val cfg = MiningConfig(sigma = 1.0, delta = 1.0, maxLevel = 2)

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

  test("instances validates the overlap range") {
    val df = symDf(("A", 0, "a"))
    assertThrows[IllegalArgumentException](SequenceBuilder.instances(df, 5, 5))
    assertThrows[IllegalArgumentException](SequenceBuilder.instances(df, 5, -1))
  }
}
