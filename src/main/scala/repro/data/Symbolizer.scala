package repro.data

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Symbolic time series representation (Section IV.B.1).
  *
  * Input is the raw-value layout used throughout the repo:
  * `(series: string, t: long, value: double)` where `t` is a slot index
  * (or slot start in fixed time units). Output replaces `value` with
  * `symbol: string`. A missing reading (null or NaN `value`) yields no
  * row: every symbolizer drops it before computing any symbol, so
  * `SequenceBuilder.instances` splits a run at the missing slot and
  * `SequenceBuilder.toSymbolicDB` rejects it.
  */
object Symbolizer {

  /** Binary threshold mapping used for the energy datasets (Section VI.A.2:
    * On iff value ≥ 0.05).
    */
  def byThreshold(raw: DataFrame, threshold: Double = 0.05): DataFrame =
    symbolize(raw, when(col("value") >= threshold, "On").otherwise("Off"))

  /** Integer-state passthrough: for generators that already emit discrete
    * states 0..n-1 as `value`, label them directly. A value outside 0..n-1,
    * infinite ones included, is clipped before the cast to a state, which
    * would otherwise overflow.
    */
  def byStates(raw: DataFrame, labels: Seq[String]): DataFrame = {
    require(labels.nonEmpty, "need at least one state label")
    symbolize(raw, element_at(array(labels.map(lit): _*),
      least(greatest(col("value"), lit(0.0)), lit(labels.size - 1.0)).cast("int") + 1))
  }

  /** `(series, t, symbol)` over the rows that hold a reading. */
  private def symbolize(raw: DataFrame, symbol: Column): DataFrame =
    raw.where(col("value").isNotNull && !isnan(col("value")))
      .select(col("series"), col("t"), symbol.as("symbol"))
}
