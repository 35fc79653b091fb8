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

  test("percentile symbolization bins per series into equal-probability states") {
    val vals = (1 to 100).map(i => ("A", i.toLong, i.toDouble))
    val out = symbols(Symbolizer.byPercentiles(raw(vals: _*), Seq("Low", "Mid", "High")))
    assert(out(("A", 1L)) == "Low")
    assert(out(("A", 50L)) == "Mid")
    assert(out(("A", 100L)) == "High")
    val counts = out.values.groupBy(identity).view.mapValues(_.size).toMap
    // ~33/34/33 split
    assert(counts.values.forall(c => c >= 30 && c <= 37), counts.toString)
  }

  test("percentile symbolization is per-series (different scales coexist)") {
    val a = (1 to 10).map(i => ("A", i.toLong, i.toDouble))
    val b = (1 to 10).map(i => ("B", i.toLong, i * 1000.0))
    val out = symbols(Symbolizer.byPercentiles(raw(a ++ b: _*), Seq("Low", "High")))
    assert(out(("A", 10L)) == "High" && out(("B", 10L)) == "High")
    assert(out(("A", 1L)) == "Low" && out(("B", 1L)) == "Low")
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
    // two nulls and a NaN: counted by percent_rank, they would lift t=1 to High
    val readings = Seq(("A", 0L, Some(1.0)), ("A", 1L, Some(2.0)), ("A", 2L, Some(3.0)), ("A", 3L, Some(4.0)),
      ("A", 4L, None), ("A", 5L, None), ("A", 6L, Some(Double.NaN)))
    val present = raw(readings.collect { case (s, t, Some(v)) if !v.isNaN => (s, t, v) }: _*)
    val symbolizers = Seq[(String, DataFrame => DataFrame)](
      "byThreshold" -> (Symbolizer.byThreshold(_)),
      "byPercentiles" -> (Symbolizer.byPercentiles(_, Seq("Low", "High"))),
      "byStates" -> (Symbolizer.byStates(_, PatternedData.cityLabels(5))))
    for ((name, symbolize) <- symbolizers) {
      val out = symbols(symbolize(readings.toDF("series", "t", "value")))
      assert(out == symbols(symbolize(present)), name)
    }
    assert(symbols(Symbolizer.byPercentiles(present, Seq("Low", "High"))).values.toSeq.sorted ==
      Seq("High", "High", "Low", "Low"))
  }

  test("symbolization preserves row count and keys") {
    val df = PatternedData.energy(spark, nSeqs = 3, nVars = 4, slotsPerSeq = 10, seed = 1L)
    val sym = Symbolizer.byThreshold(df)
    assert(sym.count() == df.count())
    assert(sym.select("series", "t").distinct().count() == df.count())
    assert(sym.select("symbol").distinct().collect().map(_.getString(0)).toSet.subsetOf(Set("On", "Off")))
  }
}
