package repro.data

import repro.SparkSpec
import repro.core._

/** The paper's worked example end-to-end: Table I → Table III → Fig. 4. */
class PaperExampleSpec extends SparkSpec {

  private lazy val db = PaperExample.sequenceDB(spark)

  test("Table I: 6 series, 36 slots, 12 distinct events") {
    assert(PaperExample.seriesNames == Seq("K", "T", "M", "C", "I", "B"))
    assert(PaperExample.symbolicDB.length == 36)
    assert(db.numEvents == 12)
    assert(db.seriesNames.sorted == Vector("B", "C", "I", "K", "M", "T"))
  }

  test("Table III: conversion yields 4 sequences") {
    assert(db.size == 4)
  }

  test("Table III row 1: K has three instances (On, Off, On)") {
    val k = db.sequences(0).instances.filter(i => db.eventNames(i.event).startsWith("K"))
    assert(k.length == 3)
    val names = k.map(i => db.eventNames(i.event)).toSeq
    assert(names == Seq("K=On", "K=Off", "K=On"))
    // [10:00,10:20) [10:20,10:35) [10:35,10:45) in minutes (end-exclusive)
    assert(k.map(i => (i.start, i.end)).toSeq == Seq((600L, 620L), (620L, 635L), (635L, 645L)))
  }

  test("Table III row 1: I is Off for the whole sequence") {
    val i = db.sequences(0).instances.filter(x => db.eventNames(x.event).startsWith("I"))
    assert(i.toSeq.map(x => (db.eventNames(x.event), x.start, x.end)) == Seq(("I=Off", 600L, 645L)))
  }

  test("bitmap of KOn is [1,1,1,1] (Fig. 4, level L1)") {
    val kOn = db.eventNames.indexOf("K=On")
    val b = db.eventBitmaps(kOn)
    assert(b.cardinality == 4)
    assert(b.stream.toArray.toSeq == Seq(0, 1, 2, 3))
  }

  test("IOn occurs only in sequences 2 and 4 (paper Section IV.D)") {
    val iOn = db.eventNames.indexOf("I=On")
    assert(db.eventBitmaps(iOn).stream.toArray.toSeq == Seq(1, 3))
  }

  test("sigma=0.7 keeps 11 frequent single events — IOn is pruned") {
    val cfg = MiningConfig(sigma = 0.7, delta = 0.7)
    val res = HTPGM.mine(db, cfg)
    assert(res.eventSupport.size == 11)
    assert(!res.eventSupport.contains(db.eventNames.indexOf("I=On")))
  }

  test("(KOn Contain TOn) is a frequent pattern with support 4 (Fig. 4 node (KOn,TOn))") {
    val res = HTPGM.mine(db, MiningConfig(sigma = 0.7, delta = 0.7))
    val kOn = db.eventNames.indexOf("K=On"); val tOn = db.eventNames.indexOf("T=On")
    val p = Pattern.pair(kOn, Relation.Contain, tOn)
    assert(res.patterns.get(p).contains(4))
    assert(res.confidence(p, 4) == 1.0)
  }

  test("mining the example produces multi-level patterns (the HPG has levels beyond L2)") {
    val res = HTPGM.mine(db, MiningConfig(sigma = 0.7, delta = 0.7))
    assert(res.stats.maxLevelReached >= 3)
    assert(res.patterns.keys.exists(_.size >= 3))
  }

  test("average instances per sequence matches a manual count of Table III") {
    // Table III rows hold 16 + 18 + 19 + 21 = 74 instances in our
    // end-exclusive representation (the paper's presentation merges
    // boundary intervals differently, DESIGN.md §3)
    assert(db.avgInstancesPerSequence * db.size == db.sequences.map(_.instances.length).sum)
    assert(db.sequences.map(_.instances.length).sum > 60)
  }

  test("symbolic DataFrame and local symbolic DB agree") {
    val fromDf = SequenceBuilder.toSymbolicDB(PaperExample.symbolic(spark))
    val local = PaperExample.symbolicDB
    for (name <- PaperExample.seriesNames) {
      val a = fromDf.series(fromDf.indexOf(name))
      val b = local.series(local.indexOf(name))
      assert(a.symbols.toSeq == b.symbols.toSeq, name)
    }
  }
}
