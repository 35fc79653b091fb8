package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestDbs

class ModelSpec extends AnyFunSuite {

  test("Instance validates its interval") {
    assertThrows[IllegalArgumentException](Instance(0, 5L, 4L))
    Instance(0, 5L, 5L) // zero-length allowed (degenerate slot)
  }

  test("Instance chronological order breaks ties on end then event") {
    val a = Instance(1, 0, 10); val b = Instance(0, 0, 12); val c = Instance(2, 0, 10)
    assert(Seq(b, c, a).sorted(Instance.chrono) == Seq(a, c, b))
  }

  test("TemporalSequence.slices groups each event preserving chronological order") {
    val s = TemporalSequence(0, Array(
      Instance(1, 0, 2), Instance(0, 1, 3), Instance(1, 5, 6))).slices
    def slice(e: Int): Seq[Instance] = {
      val i = s.indexOf(e)
      if (i < 0) Seq.empty else (s.from(i) until s.until(i)).map(x => Instance(e, s.start(x), s.end(x)))
    }
    assert(slice(1) == Seq(Instance(1, 0, 2), Instance(1, 5, 6)))
    assert(slice(0) == Seq(Instance(0, 1, 3)))
    assert(slice(2).isEmpty)
  }

  test("TemporalSequence.slices holds each event's instances as one chronological slice") {
    val s = TemporalSequence(0, Array(
      Instance(1, 0, 2), Instance(0, 1, 3), Instance(1, 5, 6))).slices
    assert(s.events.toSeq == Seq(0, 1))
    assert((s.from(0), s.until(0), s.from(1), s.until(1)) == ((0, 1, 1, 3)))
    assert(s.event.toSeq == Seq(0, 1, 1) && s.start.toSeq == Seq(1L, 0L, 5L) && s.end.toSeq == Seq(3L, 2L, 6L))
    assert(s.indexOf(2) == -1)
    assert(TemporalSequence(1, Array.empty).slices.events.isEmpty)
  }

  test("SequenceDB.eventBitmaps marks presence per sequence") {
    val db = TestDbs.handChecked
    val bm = db.eventBitmaps
    assert(bm(0).stream.toArray.toSeq == Seq(0, 1, 2)) // A everywhere
    assert(bm(2).stream.toArray.toSeq == Seq(0, 1))    // C misses seq 2
  }

  test("SequenceDB.avgInstancesPerSequence") {
    val db = TestDbs.handChecked
    assert(math.abs(db.avgInstancesPerSequence - 8.0 / 3.0) < 1e-9)
    assert(SequenceDB(Vector.empty, Vector.empty, Vector.empty, Vector.empty)
      .avgInstancesPerSequence == 0.0)
  }

  test("MiningConfig validates thresholds and eps < d_o") {
    assertThrows[IllegalArgumentException](MiningConfig(sigma = 0.0, delta = 0.5))
    assertThrows[IllegalArgumentException](MiningConfig(sigma = 0.5, delta = 1.5))
    assertThrows[IllegalArgumentException](MiningConfig(sigma = 0.5, delta = 0.5, eps = 2, dO = 2))
    MiningConfig(sigma = 1.0, delta = 1.0, eps = 1, dO = 3)
  }

  test("MiningConfig rejects eps < 0, tMax < 1 and maxLevel < 2, naming the value") {
    for ((make, name, value) <- Seq[(() => MiningConfig, String, String)](
        (() => MiningConfig(sigma = 0.5, delta = 0.5, eps = -1), "eps", "-1"),
        (() => MiningConfig(sigma = 0.5, delta = 0.5, tMax = 0), "tMax", "0"),
        (() => MiningConfig(sigma = 0.5, delta = 0.5, maxLevel = 1), "maxLevel", "1"))) {
      val msg = intercept[IllegalArgumentException](make()).getMessage
      assert(msg.contains(name) && msg.endsWith(value), msg)
    }
    MiningConfig(sigma = 0.5, delta = 0.5, eps = 0, tMax = 1, maxLevel = 2)
  }

  test("MiningResult.confidence uses the max event support (Def 3.16)") {
    val p = Pattern.pair(0, Relation.Follow, 1)
    val r = MiningResult(Map(p -> 3), Map(0 -> 5, 1 -> 10), dbSize = 10,
      MiningStats(0, 0, 0, 0, 0, 2), Vector("E0", "E1"))
    assert(r.confidence(p, 3) == 0.3)
  }

  test("MiningStats.structureMB converts bytes") {
    assert(MiningStats(0, 2L * 1024 * 1024, 0, 0, 0, 1).structureMB == 2.0)
  }

  test("Pattern.rel requires i < j") {
    val p = Pattern(Vector(1, 2, 3), Vector(Relation.Follow, Relation.Follow, Relation.Follow))
    assertThrows[IllegalArgumentException](p.rel(1, 1))
  }
}
