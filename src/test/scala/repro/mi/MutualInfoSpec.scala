package repro.mi

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport
import repro.data.PaperExample

/** Section V.A worked example over the Table I database, and the dense-count
  * kernel against a reference that counts with `groupBy`.
  */
class MutualInfoSpec extends AnyFunSuite with PropSupport {

  private val db = PaperExample.symbolicDB
  private def s(name: String): SymbolicSeries = db.series(db.indexOf(name))

  test("marginals of the worked example: p(KOn)=17/36, p(TOn)=18/36") {
    assert(s("K").symbols.count(_ == 1) == 17)
    assert(s("T").symbols.count(_ == 1) == 18)
  }

  test("I(K;T) = 0.29 (paper's worked example, natural log)") {
    assert(math.abs(MutualInfo.mi(s("K"), s("T")) - 0.29) < 0.005)
  }

  test("NMI values match the worked example (paper rounds to 0.43/0.42)") {
    // exact values: 0.4220 and 0.4211 — the paper prints 0.43 and 0.42
    val kGivenT = MutualInfo.nmi(s("K"), s("T"))
    val tGivenK = MutualInfo.nmi(s("T"), s("K"))
    assert(math.abs(kGivenT - 0.422) < 0.005)
    assert(math.abs(tGivenK - 0.421) < 0.005)
    assert(kGivenT > tGivenK) // asymmetry direction: H(K) < H(T)
  }

  test("entropy of a fair binary series is ln 2") {
    assert(math.abs(MutualInfo.entropy(s("T")) - math.log(2)) < 1e-9)
  }

  test("MI with itself equals entropy; NMI with itself equals 1") {
    for (x <- Seq("K", "T", "M")) {
      assert(math.abs(MutualInfo.mi(s(x), s(x)) - MutualInfo.entropy(s(x))) < 1e-9)
      assert(math.abs(MutualInfo.nmi(s(x), s(x)) - 1.0) < 1e-9)
    }
  }

  test("MI is symmetric, NMI need not be") {
    assert(math.abs(MutualInfo.mi(s("K"), s("T")) - MutualInfo.mi(s("T"), s("K"))) < 1e-12)
    assert(MutualInfo.nmi(s("K"), s("T")) != MutualInfo.nmi(s("T"), s("K")))
  }

  test("MI of independent-ish constant series is 0; NMI handles zero entropy") {
    val c1 = SymbolicSeries("c1", Array.fill(10)(0), IndexedSeq("Off"))
    val c2 = SymbolicSeries("c2", Array.fill(10)(0), IndexedSeq("Off"))
    assert(MutualInfo.mi(c1, c2) == 0.0)
    assert(MutualInfo.nmi(c1, c2) == 0.0)
  }

  test("MI is non-negative and bounded by min entropy (Cover & Thomas)") {
    for (a <- Seq("K", "T", "M", "C", "I", "B"); b <- Seq("K", "T", "M", "C", "I", "B")) {
      val i = MutualInfo.mi(s(a), s(b))
      assert(i >= -1e-12)
      assert(i <= math.min(MutualInfo.entropy(s(a)), MutualInfo.entropy(s(b))) + 1e-12)
    }
  }

  test("pairScore is the min of both NMI directions") {
    val score = MutualInfo.pairScore(s("K"), s("T"))
    assert(score == math.min(MutualInfo.nmi(s("K"), s("T")), MutualInfo.nmi(s("T"), s("K"))))
  }

  test("mi rejects misaligned series") {
    val short = SymbolicSeries("x", Array(0, 1), IndexedSeq("Off", "On"))
    assertThrows[IllegalArgumentException](MutualInfo.mi(s("K"), short))
  }

  /** Eqs. 7, 9 and 10 over `groupBy` counts and probability maps. */
  private object Reference {
    def entropy(x: SymbolicSeries): Double = {
      val n = x.symbols.length.toDouble
      x.symbols.groupBy(identity).values.map { g =>
        val p = g.length / n
        -p * math.log(p)
      }.sum
    }

    def mi(x: SymbolicSeries, y: SymbolicSeries): Double = {
      val n = x.symbols.length.toDouble
      val joint = x.symbols.zip(y.symbols).groupBy(identity).view.mapValues(_.length / n).toMap
      val px = x.symbols.groupBy(identity).view.mapValues(_.length / n).toMap
      val py = y.symbols.groupBy(identity).view.mapValues(_.length / n).toMap
      joint.iterator.map { case ((a, b), pxy) =>
        pxy * math.log(pxy / (px(a) * py(b)))
      }.sum
    }

    def nmi(x: SymbolicSeries, y: SymbolicSeries): Double = {
      val h = entropy(x)
      if (h == 0.0) 0.0 else mi(x, y) / h
    }
  }

  /** A series over an alphabet of 1–6 symbols that uses a random non-empty
    * subset of them (one symbol: constant), drawn freely or as a noisy copy
    * of `base` so that some pairs share much information.
    */
  private def seriesGen(name: String, len: Int, base: Option[Array[Int]]): Gen[SymbolicSeries] = for {
    size <- Gen.choose(1, 6)
    nUsed <- Gen.frequency(1 -> Gen.const(1), 3 -> Gen.choose(1, size))
    used <- Gen.pick(nUsed, 0 until size).map(_.toIndexedSeq)
    free <- Gen.listOfN(len, Gen.oneOf(used))
    noise <- Gen.listOfN(len, Gen.choose(0, 9))
  } yield {
    val symbols = base match {
      case Some(b) => Array.tabulate(len)(t => if (noise(t) == 0) free(t) else used(b(t) % nUsed))
      case None => free.toArray
    }
    SymbolicSeries(name, symbols, IndexedSeq.tabulate(size)(i => s"s$i"))
  }

  private val pairGen = for {
    len <- Gen.choose(1, 500)
    x <- seriesGen("x", len, None)
    related <- Gen.oneOf(true, false)
    y <- seriesGen("y", len, if (related) Some(x.symbols) else None)
  } yield (x, y)

  test("property: entropy, mi and nmi equal the groupBy reference within 1e-12") {
    def near(a: Double, b: Double) = math.abs(a - b) <= 1e-12
    checkProp(Prop.forAll(pairGen) { case (x, y) =>
      near(MutualInfo.entropy(x), Reference.entropy(x)) &&
        near(MutualInfo.entropy(y), Reference.entropy(y)) &&
        near(MutualInfo.mi(x, y), Reference.mi(x, y)) &&
        near(MutualInfo.nmi(x, y), Reference.nmi(x, y)) &&
        near(MutualInfo.nmi(y, x), Reference.nmi(y, x))
    })
  }
}
