package repro.experiments

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.SequenceDB
import repro.data.{PatternedData, SequenceBuilder, Symbolizer}
import repro.data.PatternedData.SlotsPerSeq
import repro.mi.{CorrelationGraph, SymbolicDB}

/** The four evaluation datasets at reproduction scale (DESIGN.md §4).
  *
  * Paper scale (Table IV) vs repro scale: the paper mines 1210–1520
  * sequences over 21–72 variables; we generate the same *structure*
  * (binary energy cascades, multi-state city storms) at a size where the
  * full σ×δ×method grids run in CI time.
  */
object Workloads {

  final case class Dataset(
      name: String,
      paperSequences: Int, paperVariables: Int, paperDistinctEvents: Int, paperAvgInst: Int,
      db: SequenceDB, symDb: SymbolicDB) {
    def numSequences: Int = db.size
    def numVariables: Int = db.seriesNames.size
    def numDistinctEvents: Int = db.numEvents

    /** Min-NMI score of every series pair, computed once. */
    lazy val pairScores: Map[(Int, Int), Double] = CorrelationGraph.pairScores(symDb)

    /** The correlation graph keeping `densityPct`% of the series pairs
      * (Def 5.6). Its vertices are the series of `symDb`, which, like
      * `db`'s, are the sorted series names of the same symbolic frame.
      */
    def graph(densityPct: Int): CorrelationGraph =
      CorrelationGraph.fromScores(symDb.series.size, pairScores,
        CorrelationGraph.muForDensity(pairScores, densityPct / 100.0))

    /** [[Tables.warmup]] on the first 40 sequences, run the first time it is read. */
    lazy val warmup: Unit = Tables.warmup(Tables.prefix(db, 40))
  }

  private val cache = scala.collection.mutable.HashMap.empty[String, Dataset]

  /** D_SEQ and D_SYB of the symbolic frame `sym`, built once per name. */
  private def dataset(name: String, paper: (Int, Int, Int, Int))(sym: => DataFrame): Dataset =
    cache.getOrElseUpdate(name, {
      val s = sym
      Dataset(name, paper._1, paper._2, paper._3, paper._4,
        SequenceBuilder.toLocal(SequenceBuilder.instances(s, SlotsPerSeq.toLong, 0L)),
        SequenceBuilder.toSymbolicDB(s))
    })

  private def energy(spark: SparkSession, nSeqs: Int, nVars: Int, seed: Long): DataFrame =
    Symbolizer.byThreshold(PatternedData.energy(spark, nSeqs, nVars, SlotsPerSeq, seed))

  /** NIST-like: the largest energy dataset (72 vars in the paper). */
  def nist(spark: SparkSession): Dataset =
    dataset("NIST-like", (1460, 72, 144, 140))(energy(spark, nSeqs = 120, nVars = 16, seed = 101L))

  /** UKDALE-like: mid-size energy dataset. */
  def ukdale(spark: SparkSession): Dataset =
    dataset("UKDALE-like", (1520, 53, 106, 126))(energy(spark, nSeqs = 120, nVars = 12, seed = 102L))

  /** DataPort-like: smallest energy dataset (21 vars in the paper). */
  def dataport(spark: SparkSession): Dataset =
    dataset("DataPort-like", (1210, 21, 42, 163))(energy(spark, nSeqs = 100, nVars = 8, seed = 103L))

  /** Smart-City-like: multi-state weather + collision variables, one
    * symbol per generated state.
    */
  def city(spark: SparkSession): Dataset =
    dataset("SmartCity-like", (1216, 59, 266, 155))(
      Symbolizer.byStates(PatternedData.city(spark, 100, 10, SlotsPerSeq, seed = 104L), PatternedData.cityLabels(5)))

  def all(spark: SparkSession): Seq[Dataset] =
    Seq(nist(spark), ukdale(spark), dataport(spark), city(spark))
}
