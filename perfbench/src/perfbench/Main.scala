package perfbench

import java.io.{File, PrintWriter}
import org.apache.spark.PerfbenchAccess
import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable

/** Runs one workload for a fixed time and writes one JSON result.
  *
  * Set-up starts Spark, generates the input `SetupRounds` times and runs
  * the workload's warm-up repetitions; `setup_s` is the session start plus
  * the median generation plus the warm-ups' pipeline time (their output
  * checks, which compute the reference results, are not counted). The
  * measured loop then repeats the pipeline until
  * `--seconds` have passed (at least `MinReps` times), collecting garbage
  * and clearing Spark's cache between repetitions, outside the timed
  * region, and checks every repetition's output.
  *
  * With `--trace 1` every other repetition records spans and Spark task
  * counters, the rest run untraced so the tracing overhead can be
  * reported, and a `maxLevel` cut-off sweep gives per-level times.
  */
object Main {
  val SetupRounds = 3
  val MinReps = 5
  val MaxReps = 500
  val RepTimeoutS = 60.0
  val MB = LayerMetrics.MB

  final case class Opts(workload: String, seed: Option[Long], seconds: Double, trace: Boolean,
                        workDir: String, result: String)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), kv.get("seed").map(_.toLong), need("seconds").toDouble,
      kv.get("trace").contains("1"), need("work-dir"), need("result"))
  }

  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted; val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val wl = Workloads.byName(o.workload)
    val seed = o.seed.getOrElse(wl.defaultSeed)
    // Two cores, not all of them: on a shared machine a run that leaves CPUs
    // free for other processes varies less with their load.
    val cores = math.min(2, Runtime.getRuntime.availableProcessors)

    val t0 = System.nanoTime()
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${wl.name}")
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.local.dir", new File(o.workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(o.workDir, "warehouse").getAbsolutePath)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val sparkStartS = secondsSince(t0)

    val tracer = new Tracer(false, spark.sparkContext)
    val counters = new SparkCounters
    if (o.trace) spark.sparkContext.addSparkListener(counters)
    val heap = new LiveHeapMonitor
    val problems = mutable.ArrayBuffer.empty[String]

    /** One repetition: its pipeline seconds, and its peak heap and output
      * when it ran and every check passed.
      */
    def repetition(raw: DataFrame): (Double, Option[(Long, Rep)]) =
      try {
        val ((secs, rep), peak) = heap.measure {
          Workloads.timed(tracer.span("pipeline")(wl.run(raw, tracer)))
        }
        val bad = wl.check(rep) ++
          (if (secs > RepTimeoutS) Seq(f"repetition took $secs%.1f s, over the $RepTimeoutS%.0f s limit") else Nil)
        problems ++= bad
        (secs, if (bad.isEmpty) Some((peak, rep)) else None)
      } catch {
        case e: Throwable =>
          problems += s"${e.getClass.getName}: ${e.getMessage}"
          e.printStackTrace()
          (0.0, None)
      } finally spark.catalog.clearCache()

    val generations = (1 to SetupRounds).map(_ => Workloads.timed(wl.generate(spark, seed)))
    val raw = generations.last._2
    val warmupS = (1 to wl.warmups).map(_ => repetition(raw)._1).sum
    val setupS = sparkStartS + median(generations.map(_._1)) + warmupS
    System.err.println(f"perfbench: ${wl.name} seed=$seed setup=$setupS%.2f s (spark $sparkStartS%.2f s, " +
      f"inputs ${generations.map(g => f"${g._1}%.2f").mkString(" ")} s, warm-up $warmupS%.2f s)")

    // Measured loop.
    final case class Sample(secs: Double, peakBytes: Long, recall: Double, traced: Boolean, run: Int)
    val samples = mutable.ArrayBuffer.empty[Sample]
    var lastTraced: Option[Rep] = None
    var attempted = 0
    val deadline = System.nanoTime() + (o.seconds * 1e9).toLong
    while (attempted < MaxReps && (attempted < MinReps || System.nanoTime() < deadline)) {
      val traced = o.trace && attempted % 2 == 0
      tracer.enabled = traced
      tracer.run = attempted
      val (secs, ok) = repetition(raw)
      ok.foreach { case (peak, rep) =>
        samples += Sample(secs, peak, wl.recall(rep), traced, attempted)
        if (traced) lastTraced = Some(rep)
      }
      attempted += 1
    }
    tracer.enabled = false
    val failed = attempted - samples.size
    System.err.println(f"perfbench: ${wl.name} $attempted repetitions, $failed failed, times ${samples.map(s => f"${s.secs}%.3f").mkString(" ")}")

    val metrics: Seq[(String, Double, String)] =
      if (samples.isEmpty) Nil
      else if (!o.trace) Seq(
        ("pipeline_s", median(samples.map(_.secs).toSeq), "s"),
        ("setup_s", setupS, "s"))
      else {
        PerfbenchAccess.drainListeners(spark.sparkContext)
        val layer = new LayerMetrics(wl, tracer, counters, cores)
        val traced = samples.filter(_.traced).toSeq
        val untraced = samples.filterNot(_.traced).toSeq
        val perRun = traced.map(s => layer.forRun(s.run))
        val times = perRun.head.keys.toSeq.map(k => k -> median(perRun.map(_(k))))
        val rep = lastTraced.get
        val counts = layer.counts(raw.count(), rep) ++ layer.levels(wl.cutoffs(raw, rep))
        spark.catalog.clearCache()
        val tracedS = median(traced.map(_.secs))
        val overhead = if (untraced.isEmpty) 0.0 else tracedS - median(untraced.map(_.secs))
        writeTrace(o, wl, seed, tracer)
        LayerMetrics.complete(times ++ counts ++ Seq(
          "trace.pipeline_s" -> tracedS, "trace.overhead_s" -> overhead,
          "jvm.peak_live_heap_mb" -> median(samples.map(_.peakBytes / MB).toSeq),
          "core.approx_recall" -> median(samples.map(_.recall).toSeq)))
      }

    val correct = problems.isEmpty && samples.nonEmpty
    problems.distinct.foreach(p => System.err.println(s"perfbench: CHECK FAILED: $p"))
    val json = Json.obj(
      "correct" -> correct,
      "attempted" -> attempted,
      "failed" -> failed,
      "metrics" -> Json.obj(metrics.map { case (k, v, u) => k -> Json.obj("value" -> v, "unit" -> u) }: _*))
    val out = new PrintWriter(o.result)
    try out.println(json.json) finally out.close()
    spark.stop()
    if (!correct || failed > 0) sys.exit(1)
  }

  private def writeTrace(o: Opts, wl: Workload, seed: Long, tracer: Tracer): Unit = {
    val f = new File(o.workDir, s"trace-${wl.name}-$seed.json")
    val w = new PrintWriter(f)
    try w.println(tracer.toJson) finally w.close()
    System.err.println(s"perfbench: spans written to ${f.getPath}")
  }
}
