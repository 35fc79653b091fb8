package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

class PatternSpec extends AnyFunSuite with PropSupport {

  test("pair pattern holds one triple") {
    val p = Pattern.pair(3, Relation.Follow, 7)
    assert(p.size == 2)
    assert(p.triples == Seq((3, Relation.Follow, 7)))
    assert(p.rel(0, 1) == Relation.Follow)
  }

  test("relation count must match event count") {
    assertThrows[IllegalArgumentException](Pattern(Vector(1, 2, 3), Vector(Relation.Follow)))
  }

  test("extension appends column-major relations (triple layout of Section IV.F)") {
    val p2 = Pattern.pair(1, Relation.Contain, 2)
    val p3 = p2.extended(5, Vector(Relation.Follow, Relation.Overlap))
    assert(p3.size == 3)
    assert(p3.rel(0, 1) == Relation.Contain)
    assert(p3.rel(0, 2) == Relation.Follow)
    assert(p3.rel(1, 2) == Relation.Overlap)
    assert(p3.triples == Seq(
      (1, Relation.Contain, 2), (1, Relation.Follow, 5), (2, Relation.Overlap, 5)))
    // a 3-event pattern has k(k-1)/2 = 3 triples, per Lemma 1's counting
    assert(p3.triples.size == 3)
  }

  test("extension rejects wrong relation arity") {
    assertThrows[IllegalArgumentException](
      Pattern.pair(1, Relation.Follow, 2).extended(3, Vector(Relation.Follow)))
  }

  test("encode/decode round-trip on a known layout") {
    val p = Pattern(Vector(4, 9, 4), Vector(Relation.Follow, Relation.Overlap, Relation.Contain))
    assert(p.encode.toSeq == Seq(4, 9, Relation.Follow.toInt, 4, Relation.Overlap.toInt, Relation.Contain.toInt))
  }

  test("render uses relation glyphs") {
    val p = Pattern.pair(0, Relation.Contain, 1)
    assert(p.render(Map(0 -> "KOn", 1 -> "TOn")) == "(KOn >= TOn)")
  }

  private val patGen: Gen[Pattern] = for {
    k <- Gen.choose(2, 6)
    ev <- Gen.listOfN(k, Gen.choose(0, 50))
    rl <- Gen.listOfN(k * (k - 1) / 2, Gen.oneOf(Relation.Follow, Relation.Contain, Relation.Overlap))
  } yield Pattern(ev.toVector, rl.toVector)

  test("property: triples count is k(k-1)/2 and rel(i,j) matches triples") {
    checkProp(Prop.forAll(patGen) { p =>
      val t = p.triples
      t.size == p.size * (p.size - 1) / 2 &&
        t.zipWithIndex.forall { case ((a, r, b), _) => p.events.contains(a) && p.events.contains(b) &&
          (r == Relation.Follow || r == Relation.Contain || r == Relation.Overlap) }
    })
  }
}
