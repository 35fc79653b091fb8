package repro.bench

import repro.SparkSpec
import repro.experiments._

/** Tables VII (runtime) and VIII (memory): all eight methods over the σ×δ
  * grid on the NIST-like and SmartCity-like datasets. The cells are
  * printed (timed pipeline runs are in `perfbench/README.md`); the
  * assertions check the *shape* claims of Section VI.C.1 rather than
  * absolute numbers:
  *
  *  - every baseline returns the same patterns as E-HTPGM (tripwire inside
  *    `TableVIIVIII.measure`);
  *  - E-HTPGM is faster than the slowest baseline in aggregate;
  *  - A-HTPGM (sparser graph) is at least as fast as E-HTPGM in aggregate
  *    and never slower where the search space is large (σ=20%);
  *  - memory: A-HTPGM retains less structure than E-HTPGM, which retains
  *    less than the baselines' aggregate.
  */
class TableVIIVIIIBench extends SparkSpec {

  // floor at 30ms: sub-hundredth-second cells are timer/GC jitter and must
  // not dominate the aggregate ratios
  private def geoMean(xs: Seq[Double]): Double =
    math.exp(xs.map(x => math.log(math.max(x, 30.0))).sum / xs.size)

  test("Tables VII and VIII: runtime and memory comparison") {
    for (ds <- Seq(Workloads.nist(spark), Workloads.city(spark))) {
      val cells = TableVIIVIII.measure(ds)
      println(TableVIIVIII.renderRuntime(ds, cells))
      println()
      println(TableVIIVIII.renderMemory(ds, cells))
      println()

      def runtimes(m: String) = cells.filter(_.method == m).map(_.runtimeMs.toDouble)
      def memory(m: String) = cells.filter(_.method == m).map(_.structureBytes.toDouble)

      val e = geoMean(runtimes("E-HTPGM"))
      val slowestBaseline = Seq("H-DFS", "IEMiner", "TPMiner").map(m => geoMean(runtimes(m))).max
      assert(e <= slowestBaseline,
        s"${ds.name}: E-HTPGM ($e ms) should beat the slowest baseline ($slowestBaseline ms)")

      val a20 = geoMean(runtimes("A-HTPGM (20%)"))
      assert(a20 <= e * 1.25,
        s"${ds.name}: A-HTPGM(20%) ($a20 ms) should not be slower than E-HTPGM ($e ms)")

      // at the loosest cell (largest search space) the approximation helps most
      val loose = cells.filter(c => c.sigmaPct == 20 && c.deltaPct == 20)
      val eLoose = loose.find(_.method == "E-HTPGM").get.runtimeMs
      val aLoose = loose.find(_.method == "A-HTPGM (20%)").get.runtimeMs
      assert(aLoose <= math.max(eLoose, 50L), s"${ds.name}: approximation must pay off at (20,20)")

      // memory shape: pruning retains less structure
      val eMem = geoMean(memory("E-HTPGM"))
      val aMem = geoMean(memory("A-HTPGM (20%)"))
      val worstBaselineMem = Seq("H-DFS", "IEMiner", "TPMiner").map(m => geoMean(memory(m))).max
      assert(aMem <= eMem, s"${ds.name}: A-HTPGM must retain less structure than E-HTPGM")
      assert(eMem <= worstBaselineMem,
        s"${ds.name}: E-HTPGM must retain less structure than the worst baseline")
    }
  }
}

/** Table IX: accuracy of A-HTPGM against E-HTPGM. */
class TableIXBench extends SparkSpec {
  test("Table IX: accuracy of A-HTPGM") {
    for (ds <- Seq(Workloads.nist(spark), Workloads.city(spark))) {
      val cells = TableIX.measure(ds)
      println(TableIX.render(ds, cells))
      println()
      // denser graphs are supersets: accuracy is monotone in the μ-density
      for (s <- Tables.NarrowGrid; d <- Tables.NarrowGrid) {
        val byDensity = Seq(40, 60, 80, 90).map(den =>
          cells.find(c => c.densityPct == den && c.sigmaPct == s && c.deltaPct == d).get.accuracyPct)
        assert(byDensity == byDensity.sorted,
          s"${ds.name} ($s,$d): accuracy must rise with graph density: $byDensity")
      }
      // the near-complete graph recovers (almost) everything
      val dense = cells.filter(_.densityPct == 90).map(_.accuracyPct)
      assert(dense.min >= 80.0, s"${ds.name}: 90% density should be ≥80% accurate, got ${dense.min}")
    }
  }
}

/** Pruning ablation (the paper's Figs. 6–7 as a table). */
class PruningBench extends SparkSpec {
  test("Pruning ablation: NoPrune / Apriori / Trans / All") {
    val nist = PruningAblation.measure(Workloads.nist(spark))
    val city = PruningAblation.measure(Workloads.city(spark))
    println(PruningAblation.render(Workloads.nist(spark), nist))
    println()
    println(PruningAblation.render(Workloads.city(spark), city))
    // all variants must agree on the result sets (exactness of the prunings)
    for (cells <- Seq(nist, city); cfg <- cells.map(_.config).distinct) {
      val sizes = cells.filter(_.config == cfg).map(_.numPatterns).distinct
      assert(sizes.size == 1, s"pruning variants disagree at $cfg: $sizes")
    }
    // deterministic work shape: pruning never generates more candidates
    for (cells <- Seq(nist, city); cfg <- cells.map(_.config).distinct) {
      def cand(v: String) = cells.find(c => c.variant == v && c.config == cfg).get.candidatePatterns
      assert(cand("All") <= cand("NoPrune"), s"$cfg: All candidates must not exceed NoPrune")
      assert(cand("Apriori") <= cand("NoPrune"), s"$cfg: Apriori candidates must not exceed NoPrune")
      assert(cand("Trans") <= cand("NoPrune"), s"$cfg: Trans candidates must not exceed NoPrune")
    }
    // timing shape where the work is non-trivial: at the loosest thresholds
    // on the heavy dataset, full pruning beats no pruning (min-of-2 timed
    // runs; 1.2x slack absorbs residual GC jitter)
    def at(cells: Seq[PruningAblation.Cell], v: String) =
      cells.find(c => c.variant == v && c.config == "s=20% d=20%").get.runtimeMs
    assert(at(city, "All") <= (at(city, "NoPrune") * 1.2).toLong + 50,
      s"city (20,20): All (${at(city, "All")} ms) must not exceed NoPrune (${at(city, "NoPrune")} ms)")
  }
}
