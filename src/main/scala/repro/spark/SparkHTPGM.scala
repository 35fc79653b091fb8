package repro.spark

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** One dictionary-encoded event instance row of the distributed D_SEQ. */
final case class InstRow(seq: Int, event: Int, start: Long, end: Long)

/** One stored occurrence of a pattern: `pat` is `Pattern.encode`, and
  * `starts`/`ends` are the instance intervals in pattern (chronological)
  * order — the instance events are the pattern's events.
  */
final case class OccRow(seq: Int, pat: Seq[Int], starts: Seq[Long], ends: Seq[Long])

/** Distributed HTPGM over Spark dataflow (the repo's adaptation of
  * Algorithm 1 to the DataFrame/Dataset API).
  *
  *  - L1 supports: grouped `countDistinct(seq)` over the instance table.
  *  - L2: a Catalyst self-join on the sequence id with the chronological
  *    ordering predicate and [[Relation.classifyCol]]; distinct
  *    `(E_i, r, E_j, seq)` rows aggregated to supports.
  *  - L≥3: stored occurrences as a typed `Dataset[OccRow]`, extended per
  *    sequence via `cogroup` with the instance table by the shared
  *    [[Relation.extend]] kernel; candidate supports by
  *    grouping on the encoded-pattern array column. The exact transitivity
  *    prunings (frequent-L2-triple lookup, extension-alphabet filter) are
  *    applied — they do not change the result set, only the work.
  *
  * Output is identical to [[repro.core.HTPGM]] (asserted in tests). The
  * optional `approx` argument reproduces A-HTPGM's L1/L2 restriction from
  * a correlation graph given as a set of unordered series-name edges.
  */
object SparkHTPGM {

  /** Mine an instance DataFrame produced by `SequenceBuilder.instances`
    * (columns seq, series, symbol, start, end). Event ids use the same
    * sorted `"series=symbol"` dictionary as `SequenceBuilder.toLocal`, so
    * patterns are directly comparable with the local miners'.
    */
  def mine(instDf: DataFrame, cfg: MiningConfig,
           approxEdges: Option[Set[(String, String)]] = None): MiningResult = {
    val spark = instDf.sparkSession
    import spark.implicits._
    val t0 = System.nanoTime()

    // Event dictionary (small) — sorted to match SequenceBuilder.toLocal.
    val dict: Map[(String, String), Int] = instDf.select("series", "symbol").distinct()
      .collect().map(r => (r.getString(0), r.getString(1)))
      .sortBy { case (s, y) => s"$s=$y" }.zipWithIndex.toMap
    val eventNames = dict.toSeq.sortBy(_._2).map { case ((s, y), _) => s"$s=$y" }.toIndexedSeq
    val eventSeriesName = dict.toSeq.sortBy(_._2).map(_._1._1).toIndexedSeq
    val dictDf = dict.toSeq.map { case ((s, y), e) => (s, y, e) }.toDF("series", "symbol", "event")

    val inst: Dataset[InstRow] = instDf
      .join(broadcast(dictDf), Seq("series", "symbol"))
      .select($"seq".cast("int"), $"event", $"start".cast("long"), $"end".cast("long"))
      .as[InstRow]
      .cache()

    val nSeq = inst.select("seq").distinct().count().toInt
    val minSupp = cfg.minSupp(nSeq)

    // ---- L1 --------------------------------------------------------------
    val eventSupp: Map[Int, Int] = inst.groupBy("event")
      .agg(countDistinct("seq").as("supp"))
      .collect().map(r => r.getInt(0) -> r.getLong(1).toInt).toMap

    val approxAllowedEvent: Int => Boolean = approxEdges match {
      case None => _ => true
      case Some(edges) =>
        val inXc = edges.flatMap { case (a, b) => Seq(a, b) }
        e => inXc.contains(eventSeriesName(e))
    }
    val freq1: Set[Int] = eventSupp.collect {
      case (e, s) if s >= minSupp && approxAllowedEvent(e) => e
    }.toSet

    val pairAllowed: (Int, Int) => Boolean = approxEdges match {
      case None => (_, _) => true
      case Some(edges) => (e1, e2) => {
        val a = eventSeriesName(e1); val b = eventSeriesName(e2)
        a == b || edges.contains((a, b)) || edges.contains((b, a))
      }
    }

    val finst = inst.filter(i => freq1.contains(i.event)).cache()

    // ---- L2: Catalyst self-join ------------------------------------------
    val a = finst.toDF("seq", "ae", "asx", "aex")
    val b = finst.toDF("seq", "be", "bsx", "bex")
    val chrono = ($"asx" < $"bsx") ||
      ($"asx" === $"bsx" && ($"aex" < $"bex" || ($"aex" === $"bex" && $"ae" < $"be")))
    val relCol = Relation.classifyCol($"asx", $"aex", $"bsx", $"bex", cfg.eps, cfg.dO)
    val pairAllowedUdf = udf(pairAllowed)
    val joined = a.join(b, Seq("seq"))
      .where(chrono && ($"bex" - $"asx" <= cfg.tMax))
      .withColumn("rel", relCol)
      .where($"rel" =!= Relation.None.toInt)
      .where(pairAllowedUdf($"ae", $"be"))
      .cache()

    val l2counts = joined.select($"ae", $"rel", $"be", $"seq").distinct()
      .groupBy("ae", "rel", "be").count()
      .collect().map(r => (r.getInt(0), r.getInt(1), r.getInt(2)) -> r.getLong(3).toInt).toMap

    def conf(events: Seq[Int], supp: Int): Double =
      supp.toDouble / events.iterator.map(eventSupp).max

    val l2kept = l2counts.filter { case ((e1, _, e2), s) =>
      s >= minSupp && conf(Seq(e1, e2), s) >= cfg.delta
    }
    val results = scala.collection.mutable.HashMap.empty[Pattern, Int]
    results ++= l2kept.map { case ((e1, r, e2), s) => Pattern.pair(e1, r.toByte, e2) -> s }

    // ---- L≥3: occurrence extension via cogroup ---------------------------
    val freq2Keys: Set[(Int, Int, Int)] = l2kept.keySet
    var occ: Dataset[OccRow] = joined
      .select($"seq", $"ae", $"asx", $"aex", $"be", $"bsx", $"bex", $"rel")
      .as[(Int, Int, Long, Long, Int, Long, Long, Int)]
      .filter(r => freq2Keys.contains((r._2, r._8, r._5)))
      .map { case (seq, ae, as_, aend, be, bs, bend, rel) =>
        OccRow(seq, Pattern(Vector(ae, be), Vector(rel.toByte)).encode.toSeq,
               Seq(as_, bs), Seq(aend, bend))
      }.cache()

    var level = 2
    var maxLevelReached = if (l2kept.nonEmpty) 2 else 1
    var done = l2kept.isEmpty
    while (!done && level < cfg.maxLevel) {
      level += 1
      // Lemma 5: only events present in a frequent (k-1)-pattern extend.
      val allowedExt: Set[Int] =
        if (level == 3) l2kept.keySet.flatMap { case (e1, _, e2) => Set(e1, e2) }
        else results.keysIterator.filter(_.size == level - 1).flatMap(_.events).toSet

      val extended: Dataset[OccRow] = occ.groupByKey(_.seq)
        .cogroup(finst.groupByKey(_.seq)) { (seq, occs, insts) =>
          val byEvent = insts.toArray.groupBy(_.event)
          occs.flatMap { o =>
            val p = Pattern.decode(o.pat.toArray)
            val occInsts = Array.tabulate(p.size)(j => Instance(p.events(j), o.starts(j), o.ends(j)))
            allowedExt.iterator.flatMap { eK =>
              byEvent.getOrElse(eK, Array.empty[InstRow]).iterator.flatMap { i =>
                val rels = Relation.extend(occInsts, eK, i.start, i.end, cfg)
                if (rels != null &&
                    rels.indices.forall(j => freq2Keys.contains((p.events(j), rels(j).toInt, eK))))
                  Some(OccRow(seq, p.extended(eK, rels.toIndexedSeq).encode.toSeq,
                              o.starts :+ i.start, o.ends :+ i.end))
                else None
              }
            }
          }
        }.cache()

      val counts = extended.toDF().groupBy("pat")
        .agg(countDistinct("seq").as("supp"))
        .collect()
        .map(r => (r.getSeq[Int](0), r.getLong(1).toInt))

      val kept = counts.filter { case (patSeq, s) =>
        val p = Pattern.decode(patSeq.toArray)
        s >= minSupp && conf(p.events, s) >= cfg.delta
      }
      if (kept.isEmpty) done = true
      else {
        maxLevelReached = level
        results ++= kept.map { case (patSeq, s) => Pattern.decode(patSeq.toArray) -> s }
        val keptKeys = kept.map(_._1).toSet
        val prevOcc = occ
        occ = extended.filter(o => keptKeys.contains(o.pat)).cache()
        prevOcc.unpersist()
      }
    }

    val stats = MiningStats((System.nanoTime() - t0) / 1000000L, structureBytes = 0L,
      candidateNodes = 0, prunedNodes = 0, candidatePatterns = 0, maxLevelReached)
    MiningResult(results.toMap, eventSupp.filter(_._2 >= minSupp), nSeq, stats)
  }
}
