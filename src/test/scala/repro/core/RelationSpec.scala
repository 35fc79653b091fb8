package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

/** Relation semantics (Defs 3.6–3.8 and the Table II examples). */
class RelationSpec extends AnyFunSuite with PropSupport {

  private def cls(s1: Long, e1: Long, s2: Long, e2: Long,
                  eps: Long = 0, dO: Long = 1): Byte =
    Relation.classify(s1, e1, s2, e2, eps, dO)

  test("Follow: second starts at or after first ends") {
    assert(cls(0, 5, 5, 8) == Relation.Follow)
    assert(cls(0, 5, 7, 9) == Relation.Follow)
  }

  test("Contain: first covers second") {
    assert(cls(0, 10, 2, 8) == Relation.Contain)
    assert(cls(0, 10, 0, 10) == Relation.Contain)
    assert(cls(0, 10, 9, 10) == Relation.Contain)
  }

  test("Overlap: crossing intervals with overlap >= d_o") {
    assert(cls(0, 5, 3, 9) == Relation.Overlap)
    assert(cls(0, 5, 4, 6) == Relation.Overlap)
  }

  test("boundary: touching intervals follow, one-slot overlap overlaps") {
    assert(cls(0, 5, 5, 10) == Relation.Follow) // end-exclusive touch
    assert(cls(0, 5, 4, 10) == Relation.Overlap) // a.end - b.start = 1 = d_o
  }

  test("epsilon buffer tolerates a small protrusion as Contain") {
    // b sticks out by 1 beyond a; with eps=1 it is still contained
    assert(cls(0, 10, 5, 11, eps = 1, dO = 3) == Relation.Contain)
    assert(cls(0, 10, 5, 12, eps = 1, dO = 3) == Relation.Overlap)
  }

  test("epsilon buffer tolerates a small overlap as Follow; gap yields None") {
    // overlap amount a.end - b.start = 1 <= eps -> Follow
    assert(cls(0, 10, 9, 20, eps = 1, dO = 5) == Relation.Follow)
    // overlap amount 3 is > eps but < d_o -> no relation
    assert(cls(0, 10, 7, 20, eps = 1, dO = 5) == Relation.None)
  }

  test("classify rejects non-chronological input") {
    assertThrows[IllegalArgumentException](cls(5, 8, 0, 9))
  }

  private val intervalGen = for {
    s1 <- Gen.choose(0L, 100L); d1 <- Gen.choose(1L, 30L)
    off <- Gen.choose(0L, 40L); d2 <- Gen.choose(1L, 30L)
  } yield (s1, s1 + d1, s1 + off, s1 + off + d2)

  test("property: with defaults (eps=0, d_o=1) relations match the definitions and are total") {
    checkProp(Prop.forAll(intervalGen) { case (s1, e1, s2, e2) =>
      val r = cls(s1, e1, s2, e2)
      val contain = e2 <= e1
      val overlap = !contain && e1 - s2 >= 1
      val expect = if (contain) Relation.Contain else if (overlap) Relation.Overlap else Relation.Follow
      r == expect && r != Relation.None
    })
  }

  test("property: Lemma 4 (transitivity) — a later instance always forms a relation under defaults") {
    checkProp(Prop.forAll(intervalGen) { case (s1, e1, s2, e2) =>
      cls(s1, e1, s2, e2) != Relation.None
    })
  }

  test("names and glyphs") {
    assert(Relation.glyph(Relation.Follow) == "->")
  }
}
