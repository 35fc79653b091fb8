package repro.jobs

import java.nio.charset.StandardCharsets
import org.apache.spark.sql.SparkSession
import repro.core.MiningConfig
import repro.data.{SequenceBuilder, Symbolizer, PatternedData}
import repro.experiments._

/** Shared session bootstrap and output for the spark-submit entrypoints. */
object JobSession {
  /** Prints `text` and a line break to `System.out` as UTF-8, whatever the
    * platform charset, so that the tables' "—" and "μ" print in any locale.
    */
  def printUtf8(text: String): Unit = {
    System.out.write((text + System.lineSeparator).getBytes(StandardCharsets.UTF_8))
    System.out.flush()
  }

  def build(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}

/** Table IV: dataset characteristics. `spark-submit --class repro.jobs.TableIVJob`. */
object TableIVJob {
  def main(args: Array[String]): Unit = JobSession.printUtf8(TableIV.run(JobSession.build("table-iv")))
}

/** Table V: number of extracted patterns over the σ×δ grid. */
object TableVJob {
  def main(args: Array[String]): Unit = JobSession.printUtf8(TableV.run(JobSession.build("table-v")))
}

/** Table VI: example interesting patterns. */
object TableVIJob {
  def main(args: Array[String]): Unit = JobSession.printUtf8(TableVI.run(JobSession.build("table-vi")))
}

/** Tables VII and VIII: runtime and memory comparison of all miners. */
object TableVIIJob {
  def main(args: Array[String]): Unit = JobSession.printUtf8(TableVIIVIII.run(JobSession.build("table-vii-viii")))
}

/** Table IX: accuracy of A-HTPGM. */
object TableIXJob {
  def main(args: Array[String]): Unit = JobSession.printUtf8(TableIX.run(JobSession.build("table-ix")))
}

/** Pruning ablation (Figs. 6–7 as a table). */
object PruningJob {
  def main(args: Array[String]): Unit = JobSession.printUtf8(PruningAblation.run(JobSession.build("pruning")))
}

/** End-to-end FTPMfTS demo: generate a raw time-series frame, transform,
  * mine distributed, and print the top frequent temporal patterns.
  * Args: [sigmaPct] [deltaPct] [topN].
  */
object MineFTPMfTSJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.build("ftpmfts")
    val sigma = args.headOption.map(_.toInt).getOrElse(40)
    val delta = args.lift(1).map(_.toInt).getOrElse(40)
    val topN = args.lift(2).map(_.toInt).getOrElse(20)

    val raw = PatternedData.energy(spark, nSeqs = 60, nVars = 12,
      slotsPerSeq = PatternedData.SlotsPerSeq, seed = 7L)
    val sym = Symbolizer.byThreshold(raw)
    val inst = SequenceBuilder.instances(sym, PatternedData.SlotsPerSeq.toLong, 0L).cache()
    val cfg = MiningConfig(sigma / 100.0, delta / 100.0, tMax = Tables.TMaxSlots)

    val res = repro.spark.SparkHTPGM.mine(inst, cfg)
    JobSession.printUtf8(s"Mined ${res.patterns.size} frequent temporal patterns " +
      s"(sigma=$sigma%, delta=$delta%) from ${res.dbSize} sequences in " +
      s"${Tables.fmtSeconds(res.stats.runtimeMillis)}s")
    res.ranked.take(topN).foreach { case (p, s, c) =>
      JobSession.printUtf8(f"  supp=${s * 100}%5.1f%%  conf=${c * 100}%5.1f%%  ${p.render(res.eventNames)}")
    }
    spark.stop()
  }
}
