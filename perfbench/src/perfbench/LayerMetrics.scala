package perfbench

import repro.core.MiningResult

/** Per-layer metrics of a traced run, from the spans, the Spark counters
  * charged to them, the outputs' counts and the `maxLevel` cut-off sweep.
  * Every workload reports every name; a layer it does not call reads 0.
  */
final class LayerMetrics(wl: Workload, tracer: Tracer, counters: SparkCounters, cores: Int) {
  import LayerMetrics._

  /** Timings and Spark counters of traced repetition `run`. */
  def forRun(run: Int): Map[String, Double] = {
    val spans = tracer.spans.filter(_.run == run)
    def seconds(name: String) = spans.filter(_.name == name).map(_.seconds).sum
    def spark(p: Span => Boolean) = counters.over(spans.filter(p).map(_.id))
    val pipeline = spans.find(_.name == "pipeline").get
    val self = tracer.selfSeconds(run)

    val seqdb = seconds("data.seqdb")
    val seqdbJobs = spark(_.name == "data.seqdb")
    val data = spark(_.layer == "data")
    val sp = spark(_.layer == "spark")
    val sparkMine = seconds("spark.mine")
    val core = spans.filter(_.layer == "core")

    val byLayer = Layers.flatMap { l =>
      val s = self.getOrElse(l, 0.0)
      Seq(s"$l.self_s" -> s, s"$l.share" -> s / pipeline.seconds)
    }
    Map(
      "jvm.gc_s" -> pipeline.gcMs / 1000.0,
      "jvm.gc_count" -> pipeline.gcCount.toDouble,
      "data.seqdb_s" -> seqdb,
      "data.seqdb_collect_s" -> seqdbJobs.jobMs / 1000.0,
      "data.from_rows_s" -> math.max(0.0, seqdb - seqdbJobs.jobMs / 1000.0),
      "data.symdb_s" -> seconds("data.symdb"),
      "data.task_s" -> data.taskMs / 1000.0,
      "data.shuffle_mb" -> data.shuffleWrite / MB,
      "mi.pair_scores_s" -> seconds("mi.pair_scores"),
      "mi.graph_s" -> seconds("mi.graph"),
      "core.mine_s" -> seconds("core.mine"),
      "core.gc_s" -> core.map(_.gcMs).sum / 1000.0,
      "core.gc_count" -> core.map(_.gcCount).sum.toDouble,
      "baselines.hdfs_s" -> seconds("baselines.hdfs"),
      "baselines.ieminer_s" -> seconds("baselines.ieminer"),
      "baselines.tpminer_s" -> seconds("baselines.tpminer"),
      "spark.mine_s" -> sparkMine,
      "spark.jobs" -> sp.jobs.toDouble,
      "spark.stages" -> sp.stages.toDouble,
      "spark.tasks" -> sp.tasks.toDouble,
      "spark.task_s" -> sp.taskMs / 1000.0,
      "spark.busy_ratio" -> (if (sparkMine > 0) sp.taskMs / 1000.0 / (sparkMine * cores) else 0.0),
      "spark.shuffle_read_mb" -> sp.shuffleRead / MB,
      "spark.shuffle_write_mb" -> sp.shuffleWrite / MB,
      "spark.spill_mb" -> sp.spill / MB,
    ) ++ byLayer
  }

  /** Work counts of one repetition's outputs. */
  def counts(rawRows: Long, rep: Rep): Seq[(String, Double)] = {
    val db = rep.db
    val data = Seq(
      "data.raw_rows" -> rawRows.toDouble,
      "data.instances" -> db.sequences.map(_.instances.length.toLong).sum.toDouble,
      "data.sequences" -> db.size.toDouble,
      "data.events" -> db.numEvents.toDouble)
    val mi = rep.graph.toSeq.flatMap { g => Seq(
      "mi.pairs" -> rep.pairs.toDouble,
      "mi.edges" -> g.edgeCount.toDouble,
      "mi.correlated_series" -> g.correlatedVertices.size.toDouble)
    }
    val core = if (wl.miningLayer != "core") Nil else {
      val s = rep.result.stats
      Seq(
        "core.candidates" -> s.candidatePatterns.toDouble,
        "core.candidate_nodes" -> s.candidateNodes.toDouble,
        "core.pruned_nodes" -> s.prunedNodes.toDouble,
        "core.max_level" -> s.maxLevelReached.toDouble,
        "core.structure_mb" -> s.structureMB,
        "core.useful_ratio" -> (if (s.candidatePatterns == 0) 0.0 else rep.result.patterns.size.toDouble / s.candidatePatterns)) ++
        rep.result.patterns.keys.groupBy(_.size).map { case (k, ps) => s"core.patterns.l$k" -> ps.size.toDouble }
    }
    val baselines = rep.baselines.flatMap { case (n, r) => Seq(
      s"baselines.$n.candidates" -> r.stats.candidatePatterns.toDouble,
      s"baselines.$n.structure_mb" -> r.stats.structureMB)
    }
    data ++ mi ++ core ++ baselines
  }

  /** Level k's time (and, for `core`, candidates) as the difference between
    * the `maxLevel = k` and `maxLevel = k - 1` cut-offs; level 2 includes L1.
    */
  def levels(cutoffs: Seq[(Int, Double, MiningResult)]): Seq[(String, Double)] = {
    val l = wl.miningLayer
    cutoffs.zip((1, 0.0, null: MiningResult) +: cutoffs).flatMap { case ((k, s, r), (_, s0, r0)) =>
      val cand = r.stats.candidatePatterns - Option(r0).map(_.stats.candidatePatterns).getOrElse(0L)
      Seq(s"$l.l${k}_s" -> (s - s0)) ++ (if (l == "core") Seq(s"core.candidates.l$k" -> cand.toDouble) else Nil)
    }
  }
}

object LayerMetrics {
  val MB = 1024.0 * 1024.0
  val Layers = Seq("data", "mi", "core", "baselines", "spark")
  val MaxLevel = 8
  private val levels = 2 to MaxLevel

  /** Every per-layer metric, in report order. */
  val Names: Seq[String] =
    Seq("trace.pipeline_s", "trace.overhead_s", "jvm.gc_s", "jvm.gc_count", "jvm.peak_live_heap_mb",
      "data.seqdb_s", "data.seqdb_collect_s", "data.from_rows_s", "data.symdb_s",
      "data.raw_rows", "data.instances", "data.sequences", "data.events",
      "data.task_s", "data.shuffle_mb", "data.self_s", "data.share",
      "mi.pair_scores_s", "mi.graph_s", "mi.pairs", "mi.edges", "mi.correlated_series",
      "mi.self_s", "mi.share",
      "core.mine_s") ++ levels.map(k => s"core.l${k}_s") ++
    Seq("core.candidates") ++ levels.map(k => s"core.candidates.l$k") ++
    levels.map(k => s"core.patterns.l$k") ++
    Seq("core.candidate_nodes", "core.pruned_nodes", "core.max_level", "core.structure_mb",
      "core.useful_ratio", "core.approx_recall", "core.gc_s", "core.gc_count", "core.self_s", "core.share") ++
    Seq("hdfs", "ieminer", "tpminer").flatMap(b =>
      Seq(s"baselines.${b}_s", s"baselines.$b.candidates", s"baselines.$b.structure_mb")) ++
    Seq("baselines.self_s", "baselines.share", "spark.mine_s") ++ levels.map(k => s"spark.l${k}_s") ++
    Seq("spark.jobs", "spark.stages", "spark.tasks", "spark.task_s", "spark.busy_ratio",
      "spark.shuffle_read_mb", "spark.shuffle_write_mb", "spark.spill_mb", "spark.self_s", "spark.share")

  def unitOf(name: String): String =
    if (name.endsWith("_s")) "s"
    else if (name.endsWith("_mb")) "MB"
    else if (name.endsWith("_ratio") || name.endsWith(".share") || name.endsWith("_recall")) "ratio"
    else "count"

  /** All of [[Names]], 0 where the workload produced no value. Levels past
    * `MaxLevel` are not reported.
    */
  def complete(measured: Seq[(String, Double)]): Seq[(String, Double, String)] = {
    val m = measured.toMap
    val unknown = (m.keySet -- Names).filterNot(_.matches(""".*\.l\d+(_s)?"""))
    require(unknown.isEmpty, s"metrics missing from LayerMetrics.Names: ${unknown.toSeq.sorted.mkString(", ")}")
    Names.map(n => (n, m.getOrElse(n, 0.0), unitOf(n)))
  }
}
