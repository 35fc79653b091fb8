package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.experiments.Workloads.Dataset

/** Tables VII (runtime, seconds) and VIII (memory, MB): every miner over
  * the σ×δ grid on the NIST-like and SmartCity-like datasets. One harness
  * produces both tables — runtime from wall-clock, memory from the
  * deterministic structure-size accounting (DESIGN.md §4).
  *
  * A correctness tripwire: the baselines and E-HTPGM must find the same
  * patterns in every cell (they are exact algorithms for the same
  * problem); a mismatch fails the bench.
  */
object TableVIIVIII {

  final case class Cell(method: String, sigmaPct: Int, deltaPct: Int,
                        runtimeMs: Long, structureBytes: Long, numPatterns: Int)

  def methodNames: Seq[String] =
    Seq("H-DFS", "IEMiner", "TPMiner", "E-HTPGM") ++
      Seq(80, 60, 40, 20).map(d => s"A-HTPGM ($d%)")

  def measure(ds: Dataset): Seq[Cell] = {
    ds.warmup
    val out = Seq.newBuilder[Cell]
    for (s <- Tables.NarrowGrid; d <- Tables.NarrowGrid) {
      val c = Tables.cfg(s, d)
      def record(name: String, r: MiningResult): MiningResult = {
        out += Cell(name, s, d, r.stats.runtimeMillis, r.stats.structureBytes, r.patterns.size)
        r
      }
      val exact = record("E-HTPGM", HTPGM.mine(ds.db, c))
      for ((name, m) <- Tables.baselineMiners) {
        val r = record(name, m(ds.db, c))
        require(r.patterns == exact.patterns,
          s"$name disagrees with E-HTPGM on ${ds.name} sigma=$s delta=$d " +
            s"(${r.patterns.size} vs ${exact.patterns.size} patterns)")
      }
      for (density <- Seq(80, 60, 40, 20))
        record(s"A-HTPGM ($density%)", Tables.aHtpgm(ds, c, density))
    }
    out.result()
  }

  def renderRuntime(ds: Dataset, cells: Seq[Cell]): String = render(ds, cells, "VII: Runtime (s)",
    c => Tables.fmtSeconds(c.runtimeMs))

  def renderMemory(ds: Dataset, cells: Seq[Cell]): String = render(ds, cells, "VIII: Memory (MB)",
    c => Tables.fmtMB(c.structureBytes))

  private def render(ds: Dataset, cells: Seq[Cell], what: String, f: Cell => String): String =
    Tables.grid(s"Table $what — ${ds.name}", Seq("supp", "method"),
      for (s <- cells.map(_.sigmaPct).distinct.sorted; m <- methodNames)
        yield (s, m) -> Seq(if (m == methodNames.head) s"$s%" else "", m),
      cells.map(_.deltaPct).distinct.sorted.map(d => d -> s"conf $d%"),
      cells.map(c => ((c.sigmaPct, c.method), c.deltaPct) -> f(c)))

  def run(spark: SparkSession): String =
    Seq(Workloads.nist(spark), Workloads.city(spark)).flatMap { ds =>
      val cells = measure(ds)
      Seq(renderRuntime(ds, cells), renderMemory(ds, cells))
    }.mkString("\n\n")
}

/** Table IX: A-HTPGM accuracy (fraction of exact patterns retained), for
  * μ-densities {40, 60, 80, 90}% over the σ×δ grid.
  */
object TableIX {
  final case class Cell(densityPct: Int, sigmaPct: Int, deltaPct: Int, accuracyPct: Double)

  def measure(ds: Dataset): Seq[Cell] = {
    ds.warmup
    for (s <- Tables.NarrowGrid; d <- Tables.NarrowGrid; c = Tables.cfg(s, d); exact = HTPGM.mine(ds.db, c);
         density <- Seq(40, 60, 80, 90))
      yield Cell(density, s, d, AHTPGM.accuracy(exact, Tables.aHtpgm(ds, c, density)) * 100.0)
  }

  def render(ds: Dataset, cells: Seq[Cell]): String =
    Tables.grid(s"Table IX: Accuracy of A-HTPGM (%) — ${ds.name}", Seq("supp", "μ-density"),
      for (s <- cells.map(_.sigmaPct).distinct.sorted; density <- Seq(40, 60, 80, 90))
        yield (s, density) -> Seq(if (density == 40) s"$s%" else "", s"$density%"),
      cells.map(_.deltaPct).distinct.sorted.map(d => d -> s"conf $d%"),
      cells.map(c => ((c.sigmaPct, c.densityPct), c.deltaPct) -> f"${c.accuracyPct}%.0f"))

  def run(spark: SparkSession): String =
    Seq(Workloads.nist(spark), Workloads.city(spark))
      .map(ds => render(ds, measure(ds))).mkString("\n\n")
}

/** Pruning ablation (the paper's Figs. 6–7, reported here as a table):
  * NoPrune / Apriori / Trans / All runtimes while varying thresholds and
  * the data fraction.
  */
object PruningAblation {
  final case class Cell(variant: String, config: String, runtimeMs: Long, numPatterns: Int,
                        candidatePatterns: Long)

  val variants: Seq[(String, MiningConfig => MiningConfig)] = Seq(
    "NoPrune" -> (c => c.copy(pruneApriori = false, pruneTrans = false)),
    "Apriori" -> (c => c.copy(pruneApriori = true, pruneTrans = false)),
    "Trans" -> (c => c.copy(pruneApriori = false, pruneTrans = true)),
    "All" -> (c => c.copy(pruneApriori = true, pruneTrans = true)))

  /** Min-of-2 timed runs with a GC between: single-run times in the
    * long-lived bench JVM carry multi-second GC-pause outliers that can
    * invert variant comparisons.
    */
  private def timed(db: SequenceDB, c: MiningConfig): MiningResult = {
    System.gc()
    val r1 = HTPGM.mine(db, c)
    val r2 = HTPGM.mine(db, c)
    if (r1.stats.runtimeMillis <= r2.stats.runtimeMillis) r1 else r2
  }

  /** Every variant at three thresholds and four data fractions. A
    * correctness tripwire: the prunings are exact, so in every
    * configuration all variants must find the same patterns.
    */
  def measure(ds: Dataset): Seq[Cell] = {
    ds.warmup
    val configs =
      Seq((20, 20), (50, 50), (80, 80)).map { case (s, d) => (s"s=$s% d=$d%", ds.db, Tables.cfg(s, d)) } ++
        Seq(25, 50, 75, 100).map(f => (s"data=$f%", Tables.prefix(ds.db, ds.db.size * f / 100), Tables.cfg(50, 50)))
    configs.flatMap { case (config, db, c) =>
      val runs = variants.map { case (name, tweak) => name -> timed(db, tweak(c)) }
      val (first, expected) = runs.head
      for ((name, r) <- runs)
        require(r.patterns == expected.patterns, s"pruning variants disagree on ${ds.name} at $config: " +
          s"$name finds ${r.patterns.size} patterns, $first ${expected.patterns.size}")
      runs.map { case (name, r) =>
        Cell(name, config, r.stats.runtimeMillis, r.patterns.size, r.stats.candidatePatterns)
      }
    }
  }

  def render(ds: Dataset, cells: Seq[Cell]): String =
    Tables.grid(s"Pruning ablation (Figs. 6-7): runtime (s) — ${ds.name}", Seq("config"),
      cells.map(_.config).distinct.map(c => c -> Seq(c)), variants.map { case (v, _) => v -> v },
      cells.map(c => (c.config, c.variant) -> Tables.fmtSeconds(c.runtimeMs)))

  def run(spark: SparkSession): String =
    Seq(Workloads.nist(spark), Workloads.city(spark))
      .map(ds => render(ds, measure(ds))).mkString("\n\n")
}
