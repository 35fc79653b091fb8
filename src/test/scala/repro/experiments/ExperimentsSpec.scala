package repro.experiments

import repro.SparkSpec
import repro.core.HTPGM

/** Unit-level checks of the experiment harness (full grids run in bench/). */
class ExperimentsSpec extends SparkSpec {

  test("Tables.render aligns columns and includes the title") {
    val out = Tables.render("T", Seq("a", "bb"), Seq(Seq("xxx", "y"), Seq("z", "wwww")))
    val lines = out.split("\n")
    assert(lines(0) == "== T ==")
    assert(lines.drop(1).map(_.length).distinct.size <= 2) // padded rows align
  }

  test("Tables.grid puts each cell under its row and column labels, and '-' where none") {
    val out = Tables.grid("G", Seq("row"), Seq(1 -> Seq("one"), 2 -> Seq("two")),
      Seq("a" -> "A", "b" -> "B"), Map((1, "a") -> "1a", (1, "b") -> "1b", (2, "b") -> "2b"))
    assert(out.split("\n").toSeq.map(_.trim) == Seq("== G ==", "row  A   B", "one  1a  1b", "two  -   2b"))
  }

  test("Tables.cfg builds percent thresholds with the experiment t_max") {
    val c = Tables.cfg(20, 50)
    assert(c.sigma == 0.2 && c.delta == 0.5)
    assert(c.tMax == Tables.TMaxSlots)
  }

  test("smallest dataset: Table V counts are monotone and the loosest cell is populated") {
    val ds = Workloads.dataport(spark)
    val cs = TableV.counts(ds)
    assert(cs((20, 20)) > 0)
    for (s <- Tables.WideGrid; d <- Tables.WideGrid) {
      assert(cs((s, d)) >= cs((math.min(s + 20, 80), d)))
      assert(cs((s, d)) >= cs((s, math.min(d + 20, 80))))
    }
  }

  test("smallest dataset: correlation graph density tracks the requested fraction") {
    val ds = Workloads.dataport(spark)
    val sparse = ds.graph(20)
    val dense = ds.graph(80)
    assert(sparse.edgeCount <= dense.edgeCount)
    assert(dense.density >= 0.75)
  }

  test("smallest dataset: A-HTPGM at full density equals E-HTPGM") {
    val ds = Workloads.dataport(spark)
    val c = Tables.cfg(50, 50)
    val exact = HTPGM.mine(ds.db, c)
    val approx = Tables.aHtpgm(ds, c, 100)
    assert(approx.patterns == exact.patterns)
  }

  test("smallest dataset: interesting patterns render with supp/conf annotations") {
    val top = TableVI.interesting(Workloads.dataport(spark), 3)
    assert(top.nonEmpty)
    assert(top.forall(l => l.contains("supp=") && l.contains("conf=")))
  }

  test("Table IV rows cover all four datasets") {
    val rows = TableIV.rows(spark)
    assert(rows.map(_.head) ==
      Seq("NIST-like", "UKDALE-like", "DataPort-like", "SmartCity-like"))
  }
}
