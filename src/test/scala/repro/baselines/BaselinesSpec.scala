package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestDbs
import repro.core.{HTPGM, MiningConfig, MiningStats}

/** Every baseline must report exactly the pattern sets and supports of the
  * exact E-HTPGM — they are alternative algorithms for the same problem
  * (Section VI.A.3 uses them only for quantitative comparison).
  */
class BaselinesSpec extends AnyFunSuite {

  private val miners: Seq[(String, (repro.core.SequenceDB, MiningConfig) => repro.core.MiningResult)] =
    Seq("H-DFS" -> (HDFS.mine(_, _)),
        "IEMiner" -> (IEMiner.mine(_, _)),
        "TPMiner" -> (TPMiner.mine(_, _)))

  test("baselines equal E-HTPGM on the hand-checked example") {
    val db = TestDbs.handChecked
    val cfg = MiningConfig(sigma = 0.6, delta = 0.5)
    val exact = HTPGM.mine(db, cfg)
    for ((name, m) <- miners) {
      val r = m(db, cfg)
      assert(r.patterns == exact.patterns, name)
      assert(r.eventSupport == exact.eventSupport, name)
    }
  }

  test("baselines equal E-HTPGM across random databases and thresholds") {
    for (seed <- 1L to 8L; (sigma, delta) <- Seq((0.3, 0.3), (0.5, 0.5), (0.7, 0.8));
         maxLevel <- Seq(Int.MaxValue, 2, 3)) {
      val db = TestDbs.random(seed, nSeqs = 6, nEvents = 5)
      val cfg = MiningConfig(sigma = sigma, delta = delta, maxLevel = maxLevel)
      val exact = HTPGM.mine(db, cfg)
      for ((name, m) <- miners)
        assert(m(db, cfg).patterns == exact.patterns, s"$name seed=$seed s=$sigma d=$delta maxLevel=$maxLevel")
    }
  }

  test("baselines equal E-HTPGM with non-default eps/d_o/t_max") {
    for (seed <- 1L to 4L) {
      val db = TestDbs.random(seed, nSeqs = 5, nEvents = 4, horizon = 25)
      val cfg = MiningConfig(sigma = 0.4, delta = 0.4, eps = 1L, dO = 3L, tMax = 20L)
      val exact = HTPGM.mine(db, cfg)
      for ((name, m) <- miners)
        assert(m(db, cfg).patterns == exact.patterns, s"$name seed=$seed")
    }
  }

  test("baselines match the brute-force miner directly") {
    val default = MiningConfig(sigma = 0.4, delta = 0.4, maxLevel = 4)
    for (seed <- 1L to 4L; cfg <- Seq(default, default.copy(eps = 1L, dO = 3L, tMax = 12L))) {
      val db = TestDbs.random(seed, nSeqs = 5, nEvents = 4, pPresent = 0.6, horizon = 20)
      val want = TestDbs.naiveMine(db, cfg, maxSize = 4)
      for ((name, m) <- miners)
        assert(m(db, cfg).patterns == want, s"$name seed=$seed $cfg")
    }
  }

  test("every exact miner matches the brute-force miner on zero-length and t_max-edge instances") {
    var found = 0
    for (seed <- 1L to 12L; tMax <- Seq(3L, 6L);
         cfg <- Seq(MiningConfig(sigma = 0.4, delta = 0.4, tMax = tMax, maxLevel = 4),
                    MiningConfig(sigma = 0.4, delta = 0.4, eps = 1L, dO = 3L, tMax = tMax, maxLevel = 4))) {
      val db = TestDbs.edges(seed, tMax)
      val want = TestDbs.naiveMine(db, cfg, maxSize = 4)
      found += want.size
      for (apriori <- Seq(true, false); trans <- Seq(true, false)) {
        val got = HTPGM.mine(db, cfg.copy(pruneApriori = apriori, pruneTrans = trans)).patterns
        assert(got == want, s"E-HTPGM apriori=$apriori trans=$trans seed=$seed $cfg")
      }
      for ((name, m) <- miners)
        assert(m(db, cfg).patterns == want, s"$name seed=$seed $cfg")
    }
    assert(found > 0, "no draw has a frequent pattern")
  }

  test("every exact miner names its events as the database does") {
    val db = TestDbs.random(3L)
    val cfg = MiningConfig(sigma = 0.5, delta = 0.5)
    for ((name, m) <- ("E-HTPGM" -> (HTPGM.mine(_: repro.core.SequenceDB, _: MiningConfig))) +: miners)
      assert(m(db, cfg).eventNames == db.eventNames, name)
  }

  test("self-relations handled by all baselines") {
    val db = TestDbs.db(1, Seq(
      (0, 0, 0L, 5L), (0, 0, 10L, 15L),
      (1, 0, 0L, 5L), (1, 0, 10L, 15L)))
    val cfg = MiningConfig(sigma = 1.0, delta = 1.0)
    val exact = HTPGM.mine(db, cfg)
    assert(exact.patterns.nonEmpty)
    for ((name, m) <- miners) assert(m(db, cfg).patterns == exact.patterns, name)
  }

  test("baselines mine by support and post-filter by confidence: stats reflect extra work") {
    val db = TestDbs.random(7L, nSeqs = 10, nEvents = 8)
    // high confidence threshold: HTPGM prunes by delta during mining, the
    // baselines cannot — they must generate at least as many candidates
    val cfg = MiningConfig(sigma = 0.3, delta = 0.9)
    val exact = HTPGM.mine(db, cfg)
    for ((name, m) <- miners) {
      val r = m(db, cfg)
      assert(r.patterns == exact.patterns, name)
      assert(r.stats.candidatePatterns >= exact.stats.candidatePatterns, name)
    }
  }

  test("baselines' counters are pinned") {
    val db = TestDbs.random(7L, nSeqs = 10, nEvents = 8)
    val default = MiningConfig(sigma = 0.3, delta = 0.9)
    // Table VIII reads structureBytes, so each baseline's cost accounting
    // is pinned on this input; runtime is zeroed.
    val want = Map(
      ("H-DFS", false) -> MiningStats(0L, 207128L, 0L, 0L, 2516L, 4),
      ("IEMiner", false) -> MiningStats(0L, 302488L, 319L, 0L, 2516L, 4),
      ("TPMiner", false) -> MiningStats(0L, 176672L, 319L, 0L, 2516L, 4),
      ("H-DFS", true) -> MiningStats(0L, 38856L, 0L, 0L, 426L, 2),
      ("IEMiner", true) -> MiningStats(0L, 54920L, 140L, 0L, 426L, 2),
      ("TPMiner", true) -> MiningStats(0L, 40192L, 140L, 0L, 426L, 2))
    for ((name, m) <- miners; tight <- Seq(false, true)) {
      val cfg = if (tight) default.copy(eps = 1L, dO = 3L, tMax = 12L) else default
      assert(m(db, cfg).stats.copy(runtimeMillis = 0L) == want((name, tight)), s"$name tight=$tight")
    }
  }
}
