package repro.data

import repro.SparkSpec

class SymbolizerSpec extends SparkSpec {
  import org.apache.spark.sql.DataFrame

  private def raw(rows: (String, Long, Double)*) = {
    import spark.implicits._
    rows.toDF("series", "t", "value")
  }

  private def symbols(df: DataFrame): Map[(String, Long), String] =
    df.collect().map(r => (r.getString(0), r.getLong(1)) -> r.getString(2)).toMap

  test("threshold symbolization: On iff value >= 0.05 (Section VI.A.2)") {
    val out = symbols(Symbolizer.byThreshold(raw(
      ("A", 0, 0.0), ("A", 1, 0.05), ("A", 2, 1.61), ("A", 3, 0.049))))
    assert(out == Map(("A", 0L) -> "Off", ("A", 1L) -> "On", ("A", 2L) -> "On", ("A", 3L) -> "Off"))
  }

  test("threshold symbolization with custom threshold and labels (Def 3.2 example)") {
    // X = 1.61, 1.21, 0.41, 0.0 with threshold 0.5 -> On, On, Off, Off
    val out = Symbolizer.byThreshold(raw(
      ("X", 0, 1.61), ("X", 1, 1.21), ("X", 2, 0.41), ("X", 3, 0.0)), threshold = 0.5)
    assert(out.orderBy("t").collect().map(_.getString(2)).toSeq == Seq("On", "On", "Off", "Off"))
  }

  test("state passthrough labels integer-valued series directly") {
    val out = symbols(Symbolizer.byStates(raw(
      ("W", 0, 0.0), ("W", 1, 4.0), ("W", 2, 2.0)), PatternedData.cityLabels(5)))
    assert(out == Map(("W", 0L) -> "S0", ("W", 1L) -> "S4", ("W", 2L) -> "S2"))
  }

  test("state passthrough clips out-of-range states") {
    val out = symbols(Symbolizer.byStates(raw(("W", 0, -3.0), ("W", 1, 99.0), ("W", 2, 1e10),
      ("W", 3, Double.PositiveInfinity), ("W", 4, Double.NegativeInfinity)), Seq("a", "b")))
    assert(out == Map(("W", 0L) -> "a", ("W", 1L) -> "b", ("W", 2L) -> "b", ("W", 3L) -> "b", ("W", 4L) -> "a"))
    assertThrows[IllegalArgumentException](Symbolizer.byStates(raw(("W", 0, 0.0)), Seq.empty))
  }

  test("every symbolizer drops a null or NaN reading before computing symbols or ranks") {
    import spark.implicits._
    val readings = Seq(("A", 0L, Some(1.0)), ("A", 1L, Some(2.0)), ("A", 2L, Some(3.0)), ("A", 3L, Some(4.0)),
      ("A", 4L, None), ("A", 5L, None), ("A", 6L, Some(Double.NaN)))
    val present = raw(readings.collect { case (s, t, Some(v)) if !v.isNaN => (s, t, v) }: _*)
    val symbolizers = Seq[(String, DataFrame => DataFrame)](
      "byThreshold" -> (Symbolizer.byThreshold(_)),
      "byStates" -> (Symbolizer.byStates(_, PatternedData.cityLabels(5))))
    for ((name, symbolize) <- symbolizers) {
      val out = symbols(symbolize(readings.toDF("series", "t", "value")))
      assert(out == symbols(symbolize(present)), name)
    }
  }

  test("symbolization preserves row count and keys") {
    val df = PatternedData.energy(spark, nSeqs = 3, nVars = 4, slotsPerSeq = 10, seed = 1L)
    val sym = Symbolizer.byThreshold(df)
    assert(sym.count() == df.count())
    assert(sym.select("series", "t").distinct().count() == df.count())
    assert(sym.select("symbol").distinct().collect().map(_.getString(0)).toSet.subsetOf(Set("On", "Off")))
  }
}
