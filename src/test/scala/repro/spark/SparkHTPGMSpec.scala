package repro.spark

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
    assertSame(SparkHTPGM.mine(rows.toDF(SequenceBuilder.InstanceColumns: _*), cfg), local)
  }

  test("approximate mode: edge set restricts mining like local A-HTPGM") {
    val cfg = MiningConfig(sigma = 0.7, delta = 0.7)
    val db = SequenceBuilder.toLocal(paperInst)
    // correlation graph from the paper's symbolic DB at mu = 0.4
    val symDb = PaperExample.symbolicDB
    val graph = CorrelationGraph.build(symDb, 0.40)
    val edges = (for {
      i <- 0 until graph.n; j <- (i + 1) until graph.n if graph.connected(i, j)
    } yield (symDb.series(i).name, symDb.series(j).name)).toSet
    // remap the graph onto the SequenceDB's sorted series order
    val remapped = {
      val adj = Array.fill(db.seriesNames.size, db.seriesNames.size)(false)
      for ((a, b) <- edges) {
        val i = db.seriesNames.indexOf(a); val j = db.seriesNames.indexOf(b)
        adj(i)(j) = true; adj(j)(i) = true
      }
      CorrelationGraph(db.seriesNames.size, adj)
    }
    val local = AHTPGM.mine(db, cfg, remapped)
    val dist = SparkHTPGM.mine(paperInst, cfg, approxEdges = Some(edges))
    assertSame(dist, local)
  }

  test("approximate mode with no edges mines nothing") {
    val dist = SparkHTPGM.mine(paperInst, MiningConfig(0.7, 0.7), approxEdges = Some(Set.empty))
    assert(dist.patterns.isEmpty)
  }
}
