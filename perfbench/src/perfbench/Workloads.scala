package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.hashing.MurmurHash3
import repro.baselines.{HDFS, IEMiner, TPMiner}
import repro.core.{AHTPGM, HTPGM, MiningConfig, MiningResult, SequenceDB}
import repro.data.{PatternedData, SequenceBuilder, Symbolizer}
import repro.mi.CorrelationGraph
import repro.spark.SparkHTPGM

/** What one repetition produced. `db` is the D_SEQ the miners ran on; the
  * Spark workload collects it only when a check or a count asks for it,
  * outside the timed region.
  */
final class Rep(val result: MiningResult, db0: () => SequenceDB,
                val graph: Option[CorrelationGraph] = None, val pairs: Int = 0,
                val baselines: Seq[(String, MiningResult)] = Nil) {
  lazy val db: SequenceDB = db0()
}

/** One benchmark workload: an input generated from a seed, the timed
  * pipeline over the layers' public calls, and its output checks.
  */
trait Workload {
  def name: String
  def defaultSeed: Long

  /** The raw `(series, t, value)` frame, built in driver memory. */
  def generate(spark: SparkSession, seed: Long): DataFrame

  /** One timed repetition, raw frame to final result. */
  def run(raw: DataFrame, tr: Tracer): Rep

  /** Mismatches of one repetition's output (empty when correct). */
  def check(rep: Rep): Seq[String]

  /** Share of the exact reference's patterns that the result reports with
    * the same support (the Table IX metric; 1.0 for an exact result).
    */
  def recall(rep: Rep): Double

  /** `maxLevel = k` cut-off runs of the workload's miner on `rep`'s input,
    * as (k, seconds, result) for k = 2 up to one past the deepest level.
    */
  def cutoffs(raw: DataFrame, rep: Rep): Seq[(Int, Double, MiningResult)]

  /** Layer of the miner the cut-offs time (`core` or `spark`). */
  def miningLayer: String = "core"

  /** Warm-up repetitions before measuring; the first one also pays for
    * the cold JIT and Spark's first queries.
    */
  def warmups: Int = 2
}

object Workloads {
  val SlotsPerSeq = 48
  val TMax = 20L

  val all: Seq[Workload] = Seq(CityExact, EnergyApprox, SparkDemo, NistTable7)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload $name; expected one of ${all.map(_.name).mkString(", ")}"))

  def config(pct: Int): MiningConfig = MiningConfig(pct / 100.0, pct / 100.0, tMax = TMax)

  def seqDb(sym: DataFrame, tr: Tracer): SequenceDB =
    tr.span("data.seqdb")(SequenceBuilder.toLocal(SequenceBuilder.instances(sym, SlotsPerSeq.toLong, 0L)))

  /** Order-independent digest of the (pattern, support) set. */
  def checksum(r: MiningResult): Int =
    MurmurHash3.unorderedHash(r.patterns.iterator.map { case (p, s) => (p.encode.toSeq, s) })

  def share(ref: MiningResult, res: MiningResult): Double =
    if (ref.patterns.isEmpty) 1.0
    else ref.patterns.count { case (p, s) => res.patterns.get(p).contains(s) }.toDouble / ref.patterns.size

  def diff(what: String, ref: MiningResult, res: MiningResult): Seq[String] =
    if (ref.patterns == res.patterns && ref.eventSupport == res.eventSupport) Nil
    else Seq(s"$what: ${res.patterns.size} patterns, reference has ${ref.patterns.size}; " +
      s"${ref.patterns.count { case (p, s) => !res.patterns.get(p).contains(s) }} reference patterns missing or with another support")

  def timed[A](body: => A): (Double, A) = {
    val t0 = System.nanoTime()
    val out = body
    ((System.nanoTime() - t0) / 1e9, out)
  }

  /** Runs `mine` with `maxLevel = 2, 3, ...` until the cut-off no longer
    * binds, i.e. one level past the deepest level the full run reached.
    */
  def sweep(fullDepth: Int)(mine: Int => MiningResult): Seq[(Int, Double, MiningResult)] =
    (2 to fullDepth + 1).map { k => val (s, r) = timed(mine(k)); (k, s, r) }

  /** Checks a result against a reference computed once per invocation and
    * every repetition's digest against the first one's.
    */
  abstract class Pinned extends Workload {
    private var pinned: Option[(MiningResult, Int)] = None
    protected def reference(rep: Rep): MiningResult
    protected def compare(ref: MiningResult, rep: Rep): Seq[String]

    private def pin(rep: Rep): (MiningResult, Int) = pinned.getOrElse {
      val p = (reference(rep), checksum(rep.result)); pinned = Some(p); p
    }
    def check(rep: Rep): Seq[String] = {
      val (ref, sum) = pin(rep)
      compare(ref, rep) ++
        (if (checksum(rep.result) == sum) Nil else Seq(s"$name: result differs from the first repetition's"))
    }
    def recall(rep: Rep): Double = share(pin(rep)._1, rep.result)
  }
}

import Workloads._

/** Smart-City-like multi-state data mined exactly: deep levels, many
  * candidates, so the `core` level-k extension does almost all the work.
  */
object CityExact extends Pinned {
  val name = "city-exact"
  val defaultSeed = 104L
  val cfg: MiningConfig = config(40)
  val NSeqs = 100
  val NVars = 10

  def generate(spark: SparkSession, seed: Long): DataFrame =
    PatternedData.city(spark, NSeqs, NVars, SlotsPerSeq, seed)

  def run(raw: DataFrame, tr: Tracer): Rep = {
    val sym = tr.span("data.symbolize")(Symbolizer.byStates(raw, PatternedData.cityLabels(5)))
    val db = seqDb(sym, tr)
    val res = tr.span("core.mine")(HTPGM.mine(db, cfg))
    new Rep(res, () => db)
  }

  protected def reference(rep: Rep): MiningResult = TPMiner.mine(rep.db, cfg)
  protected def compare(ref: MiningResult, rep: Rep): Seq[String] = diff(s"$name HTPGM vs TPMiner", ref, rep.result)

  def cutoffs(raw: DataFrame, rep: Rep): Seq[(Int, Double, MiningResult)] =
    sweep(rep.result.stats.maxLevelReached)(k => HTPGM.mine(rep.db, cfg.copy(maxLevel = k)))
}

/** Energy data mined approximately: many sequences and series, so building
  * D_SEQ and D_SYB (`data`) and scoring every series pair (`mi`) dominate,
  * and `core` runs shallow, graph-filtered levels.
  */
object EnergyApprox extends Pinned {
  val name = "energy-approx"
  val defaultSeed = 101L
  val cfg: MiningConfig = config(50)
  val NSeqs = 100
  val NVars = 24
  val Density = 0.2

  def generate(spark: SparkSession, seed: Long): DataFrame =
    PatternedData.energy(spark, NSeqs, NVars, SlotsPerSeq, seed)

  def run(raw: DataFrame, tr: Tracer): Rep = {
    val sym = tr.span("data.symbolize")(Symbolizer.byThreshold(raw))
    val db = seqDb(sym, tr)
    val symDb = tr.span("data.symdb")(SequenceBuilder.toSymbolicDB(sym))
    val scores = tr.span("mi.pair_scores")(CorrelationGraph.pairScores(symDb))
    val graph = tr.span("mi.graph")(
      CorrelationGraph.fromScores(symDb.series.size, scores, CorrelationGraph.muForDensity(scores, Density)))
    val res = tr.span("core.mine")(AHTPGM.mine(db, cfg, graph))
    new Rep(res, () => db, Some(graph), scores.size)
  }

  protected def reference(rep: Rep): MiningResult = HTPGM.mine(rep.db, cfg)
  protected def compare(ref: MiningResult, rep: Rep): Seq[String] = {
    val extra = rep.result.patterns.count { case (p, s) => !ref.patterns.get(p).contains(s) }
    if (extra == 0) Nil
    else Seq(s"$name: $extra A-HTPGM patterns are not E-HTPGM patterns with the same support")
  }

  def cutoffs(raw: DataFrame, rep: Rep): Seq[(Int, Double, MiningResult)] =
    sweep(rep.result.stats.maxLevelReached)(k => AHTPGM.mine(rep.db, cfg.copy(maxLevel = k), rep.graph.get))
}

/** The end-to-end demo input mined by the distributed miner: the cached
  * D_SEQ frame goes straight into `SparkHTPGM`, no local miner is timed.
  */
object SparkDemo extends Workload {
  val name = "spark-demo"
  val defaultSeed = 7L
  val cfg: MiningConfig = config(50)
  val NSeqs = 60
  val NVars = 8
  override val miningLayer = "spark"
  override val warmups = 3

  def generate(spark: SparkSession, seed: Long): DataFrame =
    PatternedData.energy(spark, NSeqs, NVars, SlotsPerSeq, seed)

  private def instances(raw: DataFrame): DataFrame =
    SequenceBuilder.instances(Symbolizer.byThreshold(raw), SlotsPerSeq.toLong, 0L).cache()

  def run(raw: DataFrame, tr: Tracer): Rep = {
    val inst = tr.span("data.instances")(instances(raw))
    val res = tr.span("spark.mine")(SparkHTPGM.mine(inst, cfg))
    new Rep(res, () => SequenceBuilder.toLocal(inst))
  }

  private def reference(rep: Rep): MiningResult = HTPGM.mine(rep.db, cfg)
  def check(rep: Rep): Seq[String] = diff(s"$name SparkHTPGM vs HTPGM", reference(rep), rep.result)
  def recall(rep: Rep): Double = share(reference(rep), rep.result)

  def cutoffs(raw: DataFrame, rep: Rep): Seq[(Int, Double, MiningResult)] = {
    val spark = raw.sparkSession
    sweep(rep.result.stats.maxLevelReached) { k =>
      spark.catalog.clearCache()
      SparkHTPGM.mine(instances(raw), cfg.copy(maxLevel = k))
    }
  }
}

/** One Table VII cell: E-HTPGM and the three baselines on the same D_SEQ,
  * so `baselines` take most of the time.
  */
object NistTable7 extends Workload {
  val name = "nist-table7"
  val defaultSeed = 101L
  val cfg: MiningConfig = config(40)
  val NSeqs = 100
  val NVars = 16

  def generate(spark: SparkSession, seed: Long): DataFrame =
    PatternedData.energy(spark, NSeqs, NVars, SlotsPerSeq, seed)

  def run(raw: DataFrame, tr: Tracer): Rep = {
    val sym = tr.span("data.symbolize")(Symbolizer.byThreshold(raw))
    val db = seqDb(sym, tr)
    val exact = tr.span("core.mine")(HTPGM.mine(db, cfg))
    val others = Seq(
      "hdfs" -> tr.span("baselines.hdfs")(HDFS.mine(db, cfg)),
      "ieminer" -> tr.span("baselines.ieminer")(IEMiner.mine(db, cfg)),
      "tpminer" -> tr.span("baselines.tpminer")(TPMiner.mine(db, cfg)))
    new Rep(exact, () => db, baselines = others)
  }

  def check(rep: Rep): Seq[String] =
    rep.baselines.flatMap { case (n, r) => diff(s"$name $n vs E-HTPGM", rep.result, r) }
  def recall(rep: Rep): Double = rep.baselines.map { case (_, r) => share(rep.result, r) }.min

  def cutoffs(raw: DataFrame, rep: Rep): Seq[(Int, Double, MiningResult)] =
    sweep(rep.result.stats.maxLevelReached)(k => HTPGM.mine(rep.db, cfg.copy(maxLevel = k)))
}
