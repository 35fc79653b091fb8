package repro.spark

import repro.SparkSpec
import repro.core.{AHTPGM, HTPGM, MiningConfig}
import repro.data.{PaperExample, PatternedData, SequenceBuilder, Symbolizer}
import repro.mi.CorrelationGraph

/** The distributed dataflow miner must agree exactly with the local one. */
class SparkHTPGMSpec extends SparkSpec {

  private lazy val paperInst = SequenceBuilder
    .instances(PaperExample.symbolic(spark), PaperExample.SeqLen, 0L, PaperExample.SlotWidth,
               origin = PaperExample.Origin)
    .cache()

  test("paper example: distributed equals local at sigma=0.7, delta=0.7") {
    val cfg = MiningConfig(sigma = 0.7, delta = 0.7)
    val local = HTPGM.mine(SequenceBuilder.toLocal(paperInst), cfg)
    val dist = SparkHTPGM.mine(paperInst, cfg)
    assert(dist.dbSize == local.dbSize)
    assert(dist.eventSupport == local.eventSupport)
    assert(dist.patterns == local.patterns)
  }

  test("paper example: distributed equals local at a permissive threshold (more levels)") {
    val cfg = MiningConfig(sigma = 0.5, delta = 0.5, maxLevel = 4)
    val local = HTPGM.mine(SequenceBuilder.toLocal(paperInst), cfg)
    val dist = SparkHTPGM.mine(paperInst, cfg)
    assert(dist.patterns == local.patterns)
  }

  test("synthetic energy data: distributed equals local") {
    val raw = PatternedData.energy(spark, nSeqs = 12, nVars = 8, slotsPerSeq = 24, seed = 5L)
    val inst = SequenceBuilder.instances(Symbolizer.byThreshold(raw), 24L, 0L).cache()
    val cfg = MiningConfig(sigma = 0.4, delta = 0.5, maxLevel = 4)
    val local = HTPGM.mine(SequenceBuilder.toLocal(inst), cfg)
    val dist = SparkHTPGM.mine(inst, cfg)
    assert(dist.patterns == local.patterns)
    assert(dist.patterns.nonEmpty, "sanity: the cascade groups must produce patterns")
    // non-default eps/d_o/t_max through the level-k cogroup
    val tight = cfg.copy(eps = 1L, dO = 3L, tMax = 12L)
    val localTight = HTPGM.mine(SequenceBuilder.toLocal(inst), tight)
    val distTight = SparkHTPGM.mine(inst, tight)
    assert(distTight.patterns == localTight.patterns)
    assert(distTight.patterns.keys.exists(_.size >= 3), "sanity: level k >= 3 must be reached")
  }

  test("synthetic city data: distributed equals local with multi-state alphabets") {
    val raw = PatternedData.city(spark, nSeqs = 10, nVars = 8, slotsPerSeq = 24, seed = 6L)
    val inst = SequenceBuilder.instances(
      Symbolizer.byStates(raw, PatternedData.cityLabels(5)), 24L, 0L).cache()
    val cfg = MiningConfig(sigma = 0.5, delta = 0.5, maxLevel = 3)
    val local = HTPGM.mine(SequenceBuilder.toLocal(inst), cfg)
    val dist = SparkHTPGM.mine(inst, cfg)
    assert(dist.patterns == local.patterns)
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
    assert(dist.patterns == local.patterns)
  }

  test("approximate mode with no edges mines nothing") {
    val dist = SparkHTPGM.mine(paperInst, MiningConfig(0.7, 0.7), approxEdges = Some(Set.empty))
    assert(dist.patterns.isEmpty)
  }
}
