package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, TestDbs}
import repro.mi.CorrelationGraph

/** E-HTPGM unit tests over hand-built local databases (no Spark). */
class HTPGMSpec extends AnyFunSuite with PropSupport {

  private val defaults = MiningConfig(sigma = 0.6, delta = 0.5)

  private def noPrune(c: MiningConfig) = c.copy(pruneApriori = false, pruneTrans = false)

  test("hand-checked example: exact pattern set and supports") {
    val db = TestDbs.handChecked
    val res = HTPGM.mine(db, defaults)
    // events: E0=A, E1=B, E2=C; A contains B in seqs 0,1; A,B follow C in 0,1
    val expected = Map(
      Pattern.pair(0, Relation.Contain, 1) -> 2,
      Pattern.pair(0, Relation.Follow, 2) -> 2,
      Pattern.pair(1, Relation.Follow, 2) -> 2,
      Pattern(Vector(0, 1, 2),
        Vector(Relation.Contain, Relation.Follow, Relation.Follow)) -> 2)
    assert(res.patterns == expected)
    assert(res.eventSupport == Map(0 -> 3, 1 -> 3, 2 -> 2))
    assert(res.stats.maxLevelReached == 3)
  }

  test("hand-checked example: confidences per Def 3.16") {
    val db = TestDbs.handChecked
    val res = HTPGM.mine(db, defaults)
    val p = Pattern.pair(0, Relation.Contain, 1)
    assert(math.abs(res.confidence(p, res.patterns(p)) - 2.0 / 3.0) < 1e-9)
  }

  test("self-relations: an event can relate to itself (Section III.B)") {
    val db = TestDbs.db(1, Seq(
      (0, 0, 0L, 5L), (0, 0, 10L, 15L),
      (1, 0, 0L, 5L), (1, 0, 10L, 15L)))
    val res = HTPGM.mine(db, MiningConfig(sigma = 1.0, delta = 1.0))
    assert(res.patterns.contains(Pattern.pair(0, Relation.Follow, 0)))
    assert(res.patterns(Pattern.pair(0, Relation.Follow, 0)) == 2)
  }

  test("t_max constraint invalidates distant relations (Section III.C)") {
    val db = TestDbs.db(2, Seq(
      (0, 0, 0L, 5L), (0, 1, 100L, 105L),
      (1, 0, 0L, 5L), (1, 1, 100L, 105L)))
    val wide = HTPGM.mine(db, MiningConfig(sigma = 1.0, delta = 1.0))
    assert(wide.patterns.contains(Pattern.pair(0, Relation.Follow, 1)))
    val tight = HTPGM.mine(db, MiningConfig(sigma = 1.0, delta = 1.0, tMax = 50L))
    assert(tight.patterns.isEmpty)
  }

  test("support threshold is a ceiling over relative sigma") {
    assert(MiningConfig(sigma = 0.7, delta = 0.5).minSupp(4) == 3)
    assert(MiningConfig(sigma = 0.5, delta = 0.5).minSupp(4) == 2)
    assert(MiningConfig(sigma = 0.01, delta = 0.5).minSupp(4) == 1)
    assert(MiningConfig(sigma = 1.0, delta = 0.5).minSupp(4) == 4)
  }

  test("all four pruning configurations return identical results (exactness of Lemmas 2-7)") {
    for (seed <- 1L to 10L) {
      val db = TestDbs.random(seed)
      val cfg = MiningConfig(sigma = 0.4, delta = 0.4)
      val all = HTPGM.mine(db, cfg)
      val none = HTPGM.mine(db, noPrune(cfg))
      val apriori = HTPGM.mine(db, cfg.copy(pruneTrans = false))
      val trans = HTPGM.mine(db, cfg.copy(pruneApriori = false))
      assert(all.patterns == none.patterns, s"seed=$seed all vs noPrune")
      assert(all.patterns == apriori.patterns, s"seed=$seed all vs apriori")
      assert(all.patterns == trans.patterns, s"seed=$seed all vs trans")
    }
  }

  test("matches the brute-force miner on random databases") {
    for (seed <- 1L to 8L) {
      val db = TestDbs.random(seed, nSeqs = 5, nEvents = 4, pPresent = 0.6, horizon = 20)
      val cfg = MiningConfig(sigma = 0.4, delta = 0.4, maxLevel = 4)
      val got = HTPGM.mine(db, cfg).patterns
      val want = TestDbs.naiveMine(db, cfg, maxSize = 4)
      assert(got == want, s"seed=$seed")
    }
  }

  test("matches the brute-force miner with non-default eps/d_o") {
    for (seed <- 1L to 5L; tMax <- Seq(Long.MaxValue, 12L)) {
      val db = TestDbs.random(seed, nSeqs = 5, nEvents = 4, pPresent = 0.6, horizon = 25)
      val cfg = MiningConfig(sigma = 0.4, delta = 0.4, eps = 1L, dO = 3L, tMax = tMax, maxLevel = 3)
      assert(HTPGM.mine(db, cfg).patterns == TestDbs.naiveMine(db, cfg, 3), s"seed=$seed tMax=$tMax")
    }
  }

  test("monotonicity: higher sigma and delta yield subsets") {
    val db = TestDbs.random(3L, nSeqs = 8, nEvents = 6)
    val low = HTPGM.mine(db, MiningConfig(sigma = 0.3, delta = 0.3))
    val hiS = HTPGM.mine(db, MiningConfig(sigma = 0.6, delta = 0.3))
    val hiD = HTPGM.mine(db, MiningConfig(sigma = 0.3, delta = 0.7))
    assert(hiS.patterns.keySet.subsetOf(low.patterns.keySet))
    assert(hiD.patterns.keySet.subsetOf(low.patterns.keySet))
  }

  test("every reported pattern satisfies both thresholds") {
    val db = TestDbs.random(9L, nSeqs = 8, nEvents = 6)
    val cfg = MiningConfig(sigma = 0.4, delta = 0.5)
    val res = HTPGM.mine(db, cfg)
    val minSupp = cfg.minSupp(db.size)
    for ((p, s) <- res.patterns) {
      assert(s >= minSupp)
      assert(res.confidence(p, s) >= cfg.delta)
    }
  }

  test("maxLevel caps the pattern length") {
    val db = TestDbs.random(4L, nSeqs = 6, nEvents = 6)
    val capped = HTPGM.mine(db, MiningConfig(sigma = 0.3, delta = 0.3, maxLevel = 2))
    assert(capped.patterns.keys.forall(_.size <= 2))
  }

  test("pruning reduces work: candidate patterns with All <= NoPrune") {
    val db = TestDbs.random(5L, nSeqs = 10, nEvents = 8)
    val cfg = MiningConfig(sigma = 0.4, delta = 0.6)
    val all = HTPGM.mine(db, cfg)
    val none = HTPGM.mine(db, noPrune(cfg))
    assert(all.stats.candidatePatterns <= none.stats.candidatePatterns)
    assert(all.stats.structureBytes <= none.stats.structureBytes)
  }

  test("empty result when sigma cannot be met") {
    val db = TestDbs.db(2, Seq((0, 0, 0L, 5L), (1, 1, 0L, 5L)))
    val res = HTPGM.mine(db, MiningConfig(sigma = 1.0, delta = 1.0))
    assert(res.patterns.isEmpty)
    assert(res.eventSupport.isEmpty)
  }

  test("ranked output sorts by support then confidence") {
    val db = TestDbs.random(6L, nSeqs = 8, nEvents = 6)
    val res = HTPGM.mine(db, MiningConfig(sigma = 0.3, delta = 0.3))
    val ranked = res.ranked
    assert(ranked.map(-_._2) == ranked.map(-_._2).sorted)
  }

  test("E-HTPGM's counters are pinned") {
    val db = TestDbs.random(7L, nSeqs = 10, nEvents = 8)
    val edges = Set((0, 1), (0, 2), (1, 3), (4, 5), (5, 6)) // series 7 is isolated
    val graph = CorrelationGraph(8, Array.tabulate(8, 8)((i, j) => edges((i, j)) || edges((j, i))))
    // Table VIII reads structureBytes and the pruning ablation the node and
    // candidate counts, so the level loop's cost accounting is pinned on
    // this input: the four pruning configurations and A-HTPGM on a fixed
    // graph, at δ = 0.9 (as the baselines' pin) and at δ = 0.5, where the
    // exact miner reaches level 3. Runtime is zeroed.
    val want = Map(
      (0.9, "All") -> MiningStats(0L, 5952L, 44L, 28L, 68L, 1),
      (0.9, "Apriori") -> MiningStats(0L, 11736L, 108L, 84L, 81L, 2),
      (0.9, "Trans") -> MiningStats(0L, 43896L, 8L, 0L, 607L, 1),
      (0.9, "NoPrune") -> MiningStats(0L, 167056L, 8L, 0L, 2516L, 4),
      (0.9, "A-HTPGM") -> MiningStats(0L, 5016L, 20L, 5L, 63L, 1),
      (0.5, "All") -> MiningStats(0L, 66752L, 163L, 14L, 827L, 3),
      (0.5, "Apriori") -> MiningStats(0L, 157880L, 320L, 61L, 2160L, 4),
      (0.5, "Trans") -> MiningStats(0L, 63824L, 8L, 0L, 838L, 3),
      (0.5, "NoPrune") -> MiningStats(0L, 167056L, 8L, 0L, 2516L, 4),
      (0.5, "A-HTPGM") -> MiningStats(0L, 16296L, 64L, 5L, 161L, 2))
    for (delta <- Seq(0.9, 0.5)) {
      val cfg = MiningConfig(sigma = 0.3, delta = delta)
      val miners = Seq(
        "All" -> HTPGM.mine(db, cfg),
        "Apriori" -> HTPGM.mine(db, cfg.copy(pruneTrans = false)),
        "Trans" -> HTPGM.mine(db, cfg.copy(pruneApriori = false)),
        "NoPrune" -> HTPGM.mine(db, noPrune(cfg)),
        "A-HTPGM" -> AHTPGM.mine(db, cfg, graph))
      for ((name, r) <- miners)
        assert(r.stats.copy(runtimeMillis = 0L) == want((delta, name)), s"$name delta=$delta")
    }
  }

  test("E-HTPGM's counters are pinned where level 3 needs a Contain pair under Trans") {
    // The pin above never reaches a level-3 pattern whose new event stands
    // in a Contain relation to an earlier one, so it cannot tell whether the
    // Trans table holds the Contain bit. Over a shorter horizon (denser
    // instances) the same generator does.
    val db = TestDbs.random(7L, nSeqs = 10, nEvents = 8, horizon = 15)
    val cfg = MiningConfig(sigma = 0.3, delta = 0.3)
    val want = Map(
      "All" -> MiningStats(0L, 82680L, 240L, 0L, 1190L, 3),
      "Trans" -> MiningStats(0L, 77112L, 8L, 0L, 1190L, 3),
      "NoPrune" -> MiningStats(0L, 132128L, 8L, 0L, 2114L, 3))
    val miners = Seq(
      "All" -> HTPGM.mine(db, cfg),
      "Trans" -> HTPGM.mine(db, cfg.copy(pruneApriori = false)),
      "NoPrune" -> HTPGM.mine(db, noPrune(cfg)))
    val none = miners.last._2.patterns
    assert(none.keys.exists(p => p.size == 3 && (p.rel(0, 2) == Relation.Contain || p.rel(1, 2) == Relation.Contain)),
      "sanity: a frequent level-3 pattern has a Contain relation to its last event")
    assert(miners.map { case (name, r) => name -> r.stats.copy(runtimeMillis = 0L) }.toMap == want)
    for ((name, r) <- miners) assert(r.patterns == none, name)
  }

  // Random event presence over `nGen` sequences and nodes of 2–3 events
  // (repeats allowed).
  private def presenceGen(nGen: Gen[Int]) = for {
    n <- nGen
    numEvents <- Gen.choose(1, 6)
    seqSets <- Gen.listOfN(numEvents, Gen.listOf(Gen.choose(0, n - 1)).map(_.toSet))
    nodes <- Gen.listOf(Gen.choose(2, 3).flatMap(k => Gen.listOfN(k, Gen.choose(0, numEvents - 1))))
    minSupp <- Gen.choose(1, n)
    delta <- Gen.choose(0.05, 1.0)
  } yield (n, seqSets.toVector, nodes.map(_.sorted.toVector).distinct, minSupp, delta)

  test("L1 bitmaps and joint-bitmap node tests agree with sequence sets across word boundaries") {
    // 1–300 sequences, and each word edge on its own.
    for (nGen <- Gen.choose(1, 300) +: Seq(63, 64, 65, 129).map(Gen.const))
      checkProp(Prop.forAll(presenceGen(nGen)) { case (n, seqSets, nodeList, minSupp, delta) =>
        val present = IndexedSeq.tabulate(n)(i => seqSets.indices.filter(seqSets(_).contains(i)).toArray)
        val bitmaps = SequenceDB.eventBitmaps(seqSets.size, present)
        val nodes = new HTPGM.BitmapNodes(bitmaps, n, minSupp, delta)
        val decisions = nodeList.map { ev =>
          val supp = ev.map(seqSets).reduce(_ intersect _).size
          nodes.passes(ev) == (supp >= minSupp && supp.toDouble / ev.map(seqSets(_).size).max >= delta)
        }
        val bitmapBytes = 16L + 8L * ((n + 63) / 64)
        bitmaps.map(_.stream.toArray.toSet) == seqSets &&
          nodes.eventSupport == seqSets.map(_.size) &&
          decisions.forall(identity) &&
          nodes.candidates == seqSets.size + nodeList.size &&
          nodes.bytes == (seqSets.size + nodeList.size) * bitmapBytes
      })
  }
}
