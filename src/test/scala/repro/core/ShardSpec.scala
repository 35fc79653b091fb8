package repro.core

import scala.util.Random
import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, TestDbs}
import repro.core.HTPGM.{Counts, Shard, Step}

/** The interned, flat-array level-k kernel against [[ReferenceShard]]. */
class ShardSpec extends AnyFunSuite with PropSupport {

  // (events, rows): 1–6 sequences of 1–8 instances over 1–4 events, starts
  // 0–20 and lengths 0–6 (a zero-length instance can start exactly at
  // first.start + t_max). Not shrunk: a shrunk row list can skip a sequence
  // id, which TestDbs.db rejects.
  private val dbGen = for {
    nSeqs <- Gen.choose(1, 6)
    nEvents <- Gen.choose(1, 4)
    inst = for { e <- Gen.choose(0, nEvents - 1); st <- Gen.choose(0L, 20L); len <- Gen.choose(0L, 6L) } yield (e, st, st + len)
    seqs <- Gen.listOfN(nSeqs, Gen.choose(1, 8).flatMap(Gen.listOfN(_, inst)))
  } yield (nEvents, for ((is, s) <- seqs.zipWithIndex; (e, st, en) <- is) yield (s, e, st, en))

  private val cfgGen = for {
    eps <- Gen.choose(0L, 2L)
    dO <- Gen.choose(eps + 1, eps + 3)
    tMax <- Gen.oneOf(Gen.const(Long.MaxValue), Gen.choose(1L, 15L))
    maxLevel <- Gen.choose(2, 5)
  } yield MiningConfig(sigma = 0.5, delta = 0.5, eps = eps, dO = dO, tMax = tMax, maxLevel = maxLevel)

  /** Each candidate's pattern, given the patterns its parent ids stand for. */
  private def patterns(c: Counts, parents: Array[Pattern]): IndexedSeq[Pattern] =
    (0 until c.size).map { i =>
      val p = parents(c.parent(i))
      p.extended(c.event(i), IndexedSeq.tabulate(p.size)(c.rel(i, _)))
    }

  /** The counts by pattern; no pattern may sit under two keys. */
  private def decode(c: Counts, parents: Array[Pattern]): Map[Pattern, (Int, Long)] = {
    val ps = patterns(c, parents)
    assert(ps.distinct.size == ps.size, "one pattern under two keys")
    ps.indices.map(i => ps(i) -> ((c.sequences(i), c.occurrences(i)))).toMap
  }

  test("property: level by level, the kernel's counts equal the reference's, and one-sequence shards sum to them") {
    for (useTrans <- Seq(false, true))
      checkProp(Prop.forAllNoShrink(dbGen, cfgGen, Gen.choose(1, 6), Gen.long) { case ((nEvents, rows), cfg, minSuppGen, seed) =>
        val db = TestDbs.db(nEvents, rows)
        val n = db.numEvents
        val minSupp = math.min(minSuppGen, db.size)
        val rng = new Random(seed)
        var ref = ReferenceShard(db.sequences)
        var shard = Shard(db.sequences)
        var singles = db.sequences.map(s => Shard(Seq(s)))
        var kept = Array.tabulate(n)(e => Pattern(Vector(e), Vector.empty))
        var keys = Array.tabulate(n)(_.toLong)
        var frequentL2: Option[Set[(Int, Byte, Int)]] = None
        var ok = true
        var k = 2
        while (ok && kept.nonEmpty && k <= cfg.maxLevel) {
          // A random subset of the events extends each kept pattern.
          val ext = kept.map(_ => (0 until n).filter(_ => rng.nextInt(4) != 0).toArray)
          val l2 = if (k > 2) frequentL2 else None
          // The kernel's layout of l2: bit r of pairs(a)(b) for (a, r, b).
          val pairs = l2.map { ts =>
            val t = Array.fill(n)(new Array[Byte](n))
            for ((a, r, b) <- ts) t(a)(b) = (t(a)(b) | 1 << r).toByte
            t
          }
          val step = Step(k, keys, ext, pairs, cfg)
          ref = ref.extend(kept.indices.map(i => kept(i) -> ext(i)).toMap, l2, cfg)
          shard = shard.extend(step)
          singles = singles.map(_.extend(step))
          val got = decode(shard.counts, kept)
          ok = got == ref.counts && decode(Counts.sum(Counts.width(k), singles.map(_.counts)), kept) == got
          val counts = shard.counts
          val frequent = (0 until counts.size).filter(counts.sequences(_) >= minSupp)
          val next = patterns(counts, kept)
          if (k == 2 && useTrans)
            frequentL2 = Some(frequent.map(c => (next(c).events(0), next(c).rel(0, 1), next(c).events(1))).toSet)
          kept = frequent.map(next).toArray
          keys = frequent.flatMap(c => counts.keys.slice(c * counts.width, (c + 1) * counts.width)).toArray
          k += 1
        }
        ok
      })
  }
}
