package repro.spark

import org.apache.spark.sql.functions.lit
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}
import repro.SparkSpec
import repro.core.{AHTPGM, HTPGM, MiningConfig, MiningResult}
import repro.data.{PaperExample, PatternedData, SequenceBuilder, Symbolizer}
import repro.mi.CorrelationGraph

/** The distributed miner must agree exactly with the local one. */
class SparkHTPGMSpec extends SparkSpec {

  /** Same patterns, event supports, database size and counters; only the
    * runtime may differ.
    */
  private def assertSame(dist: MiningResult, local: MiningResult, clue: String = ""): Unit = {
    assert(dist.patterns == local.patterns, clue)
    assert(dist.eventSupport == local.eventSupport, clue)
    assert(dist.dbSize == local.dbSize, clue)
    assert(dist.stats.copy(runtimeMillis = 0L) == local.stats.copy(runtimeMillis = 0L), clue)
  }

  private lazy val paperInst = SequenceBuilder
    .instances(PaperExample.symbolic(spark), PaperExample.SeqLen, 0L, PaperExample.SlotWidth,
               origin = PaperExample.Origin)
    .cache()

  test("paper example: distributed equals local at sigma=0.7, delta=0.7") {
    val cfg = MiningConfig(sigma = 0.7, delta = 0.7)
    val local = HTPGM.mine(SequenceBuilder.toLocal(paperInst), cfg)
    val dist = SparkHTPGM.mine(paperInst, cfg)
    assertSame(dist, local)
  }

  test("paper example: distributed equals local at a permissive threshold (more levels)") {
    val cfg = MiningConfig(sigma = 0.5, delta = 0.5, maxLevel = 4)
    val local = HTPGM.mine(SequenceBuilder.toLocal(paperInst), cfg)
    val dist = SparkHTPGM.mine(paperInst, cfg)
    assertSame(dist, local)
  }

  test("synthetic energy data: distributed equals local") {
    val raw = PatternedData.energy(spark, nSeqs = 12, nVars = 8, slotsPerSeq = 24, seed = 5L)
    val inst = SequenceBuilder.instances(Symbolizer.byThreshold(raw), 24L, 0L).cache()
    val db = SequenceBuilder.toLocal(inst)
    val cfg = MiningConfig(sigma = 0.4, delta = 0.5, maxLevel = 4)
    // all four pruning configurations: the counters differ between them
    for (apriori <- Seq(false, true); trans <- Seq(false, true)) {
      val c = cfg.copy(pruneApriori = apriori, pruneTrans = trans)
      val dist = SparkHTPGM.mine(inst, c)
      assertSame(dist, HTPGM.mine(db, c), s"pruneApriori=$apriori pruneTrans=$trans")
      assert(dist.patterns.nonEmpty, "sanity: the cascade groups must produce patterns")
    }
    // non-default eps/d_o/t_max through the level-k extension
    val tight = cfg.copy(eps = 1L, dO = 3L, tMax = 12L)
    val distTight = SparkHTPGM.mine(inst, tight)
    assertSame(distTight, HTPGM.mine(db, tight))
    assert(distTight.patterns.keys.exists(_.size >= 3), "sanity: level k >= 3 must be reached")
  }

  test("synthetic energy data: 1 and 64 input partitions equal local, and mine leaves no RDD cached") {
    val raw = PatternedData.energy(spark, nSeqs = 12, nVars = 8, slotsPerSeq = 24, seed = 5L)
    val inst = SequenceBuilder.instances(Symbolizer.byThreshold(raw), 24L, 0L).cache()
    val cfg = MiningConfig(sigma = 0.4, delta = 0.5, maxLevel = 4)
    val local = HTPGM.mine(SequenceBuilder.toLocal(inst), cfg)
    val sc = spark.sparkContext
    for (parts <- Seq(1, 64)) {
      val before = sc.getPersistentRDDs.keySet
      assertSame(SparkHTPGM.mine(inst.repartition(parts), cfg), local, s"$parts input partitions")
      assert(sc.getPersistentRDDs.keySet.subsetOf(before), s"$parts input partitions: mine left an RDD cached")
    }
  }

  /** The number of Spark jobs that `body` starts. The status store learns of
    * jobs asynchronously but in order, so once a marker job started after
    * `body` is in it, so are all of `body`'s.
    */
  private def jobsOf(body: => Any): Int = {
    val sc = spark.sparkContext
    val group = s"jobs-${System.nanoTime}"
    def inGroup(g: String)(f: => Any): Unit = { sc.setJobGroup(g, g); try f finally sc.clearJobGroup() }
    inGroup(group)(body)
    inGroup(s"$group-marker")(sc.parallelize(Seq(1), 1).count())
    eventually(timeout(Span(10, Seconds)))(assert(sc.statusTracker.getJobIdsForGroup(s"$group-marker").nonEmpty))
    sc.statusTracker.getJobIdsForGroup(group).length
  }

  test("mine runs one job before level 2 and one per level, on a cached frame and an uncached one") {
    val raw = PatternedData.energy(spark, nSeqs = 12, nVars = 8, slotsPerSeq = 24, seed = 5L)
    val inst = SequenceBuilder.instances(Symbolizer.byThreshold(raw), 24L, 0L).cache()
    val cfg = MiningConfig(sigma = 0.4, delta = 0.5, maxLevel = 4)
    val local = HTPGM.mine(SequenceBuilder.toLocal(inst), cfg)
    assert(local.patterns.nonEmpty, "sanity: level 2 must keep patterns")
    // The level loop runs a step for each level after one that kept a
    // pattern, up to maxLevel.
    val steps = math.min(local.stats.maxLevelReached + 1, cfg.maxLevel) - 1
    assert(jobsOf(assertSame(SparkHTPGM.mine(inst, cfg), local)) == 1 + steps, "cached")
    // Adaptive execution runs an uncached frame's own exchange as a job of
    // its own whenever the frame's plan is executed, whoever reads it.
    val own = jobsOf(inst.repartition(3).queryExecution.toRdd)
    assert(jobsOf(assertSame(SparkHTPGM.mine(inst.repartition(3), cfg), local)) == own + 1 + steps,
           s"uncached repartition(3), whose own plan runs $own jobs")
  }

  test("an empty instance frame mines what the local miner mines on no rows, and caches nothing") {
    import spark.implicits._
    val empty = Seq.empty[(Int, String, String, Long, Long)].toDF("seq", "series", "symbol", "start", "end")
    val cfg = MiningConfig(sigma = 0.5, delta = 0.5)
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    assertSame(SparkHTPGM.mine(empty, cfg), HTPGM.mine(SequenceBuilder.fromRows(Nil), cfg))
    assert(sc.getPersistentRDDs.keySet.subsetOf(before), "mine left an RDD cached")
  }

  test("a null in any instance column fails naming the column") {
    for (c <- SequenceBuilder.InstanceColumns) {
      val bad = paperInst.withColumn(c, lit(null).cast(paperInst.schema(c).dataType))
      val msg = rejected(SparkHTPGM.mine(bad, MiningConfig(0.7, 0.7))).getMessage
      assert(msg.contains(s"null $c in"), msg)
    }
  }

  test("synthetic city data: distributed equals local with multi-state alphabets") {
    val raw = PatternedData.city(spark, nSeqs = 10, nVars = 8, slotsPerSeq = 24, seed = 6L)
    val inst = SequenceBuilder.instances(
      Symbolizer.byStates(raw, PatternedData.cityLabels(5)), 24L, 0L).cache()
    val cfg = MiningConfig(sigma = 0.5, delta = 0.5, maxLevel = 3)
    val local = HTPGM.mine(SequenceBuilder.toLocal(inst), cfg)
    val dist = SparkHTPGM.mine(inst, cfg)
    assertSame(dist, local)
  }

  test("events that print alike number the same way: distributed equals local") {
    import spark.implicits._
    // (a=b, c) and (a, b=c) both print as "a=b=c"; the series breaks the tie
    val rows = (0 until 4).flatMap(s => Seq(
      (s, "a=b", "c", 0L, 2L), (s, "a", "b=c", 3L, 5L), (s, "a=b", "c", 4L, 8L)))
    val db = SequenceBuilder.fromRows(rows)
    assert(db.eventSeries == Seq(0, 1) && db.seriesNames == Seq("a", "a=b"))
    val cfg = MiningConfig(sigma = 0.5, delta = 0.5)
    val local = HTPGM.mine(db, cfg)
    assert(local.patterns.keys.exists(_.size == 3), "sanity: both events must form patterns")
    assertSame(SparkHTPGM.mine(rows.toDF("seq", "series", "symbol", "start", "end"), cfg), local)
  }

  test("mine names its events as toLocal does, also events that print alike") {
    import spark.implicits._
    val rows = (0 until 4).flatMap(s => Seq(
      (s, "a=b", "c", 0L, 2L), (s, "a", "b=c", 3L, 5L), (s, "a=b", "c", 4L, 8L)))
    val alike = rows.toDF("seq", "series", "symbol", "start", "end")
    for ((df, what) <- Seq((alike, "alike"), (paperInst, "paper example"))) {
      val names = SequenceBuilder.toLocal(df).eventNames
      assert(SparkHTPGM.mine(df, MiningConfig(sigma = 0.5, delta = 0.5)).eventNames == names, what)
    }
  }

  /** The paper example's correlation graph at mu = 0.4, over the sorted
    * series names.
    */
  private lazy val paperGraph =
    CorrelationGraph.build(SequenceBuilder.toSymbolicDB(PaperExample.symbolic(spark)), 0.40)

  test("approximate mode: edge set restricts mining like local A-HTPGM") {
    val cfg = MiningConfig(sigma = 0.7, delta = 0.7)
    val local = AHTPGM.mine(SequenceBuilder.toLocal(paperInst), cfg, paperGraph)
    val dist = SparkHTPGM.mine(paperInst, cfg, graph = Some(paperGraph))
    assertSame(dist, local)
    assert(paperGraph.edgeCount > 0 && paperGraph.density < 1, "sanity: the graph must prune")
  }

  test("approximate mode with no edges mines nothing") {
    val empty = CorrelationGraph(paperGraph.n, Array.fill(paperGraph.n, paperGraph.n)(false))
    val dist = SparkHTPGM.mine(paperInst, MiningConfig(0.7, 0.7), graph = Some(empty))
    assert(dist.patterns.isEmpty)
  }

  test("approximate mode: graph vertex count must match the series count") {
    val bigger = CorrelationGraph(paperGraph.n + 1, Array.fill(paperGraph.n + 1, paperGraph.n + 1)(true))
    assertThrows[IllegalArgumentException](SparkHTPGM.mine(paperInst, MiningConfig(0.7, 0.7), graph = Some(bigger)))
  }
}
