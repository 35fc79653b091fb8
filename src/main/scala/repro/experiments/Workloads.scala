package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core.SequenceDB
import repro.data.{PatternedData, SequenceBuilder, Symbolizer}
import repro.data.PatternedData.SlotsPerSeq
import repro.mi.SymbolicDB

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
  }

  private val cache = scala.collection.mutable.HashMap.empty[String, Dataset]

  private def energyDataset(spark: SparkSession, name: String, nSeqs: Int, nVars: Int,
                            seed: Long, paper: (Int, Int, Int, Int)): Dataset =
    cache.getOrElseUpdate(name, {
      val sym = Symbolizer.byThreshold(PatternedData.energy(spark, nSeqs, nVars, SlotsPerSeq, seed))
      Dataset(name, paper._1, paper._2, paper._3, paper._4,
        SequenceBuilder.toLocal(SequenceBuilder.instances(sym, SlotsPerSeq.toLong, 0L)),
        SequenceBuilder.toSymbolicDB(sym))
    })

  /** NIST-like: the largest energy dataset (72 vars in the paper). */
  def nist(spark: SparkSession): Dataset =
    energyDataset(spark, "NIST-like", nSeqs = 120, nVars = 16, seed = 101L,
      paper = (1460, 72, 144, 140))

  /** UKDALE-like: mid-size energy dataset. */
  def ukdale(spark: SparkSession): Dataset =
    energyDataset(spark, "UKDALE-like", nSeqs = 120, nVars = 12, seed = 102L,
      paper = (1520, 53, 106, 126))

  /** DataPort-like: smallest energy dataset (21 vars in the paper). */
  def dataport(spark: SparkSession): Dataset =
    energyDataset(spark, "DataPort-like", nSeqs = 100, nVars = 8, seed = 103L,
      paper = (1210, 21, 42, 163))

  /** Smart-City-like: multi-state weather + collision variables. */
  def city(spark: SparkSession): Dataset =
    cache.getOrElseUpdate("SmartCity-like", {
      val raw = PatternedData.city(spark, 100, 10, SlotsPerSeq, seed = 104L)
      val sym = Symbolizer.byStates(raw, PatternedData.cityLabels(5))
      Dataset("SmartCity-like", 1216, 59, 266, 155,
        SequenceBuilder.toLocal(SequenceBuilder.instances(sym, SlotsPerSeq.toLong, 0L)),
        SequenceBuilder.toSymbolicDB(sym))
    })

  def all(spark: SparkSession): Seq[Dataset] =
    Seq(nist(spark), ukdale(spark), dataport(spark), city(spark))
}
