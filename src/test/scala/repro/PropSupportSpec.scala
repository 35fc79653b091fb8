package repro

import org.scalacheck.{Gen, Prop}
import org.scalatest.exceptions.TestFailedException
import org.scalatest.funsuite.AnyFunSuite

class PropSupportSpec extends AnyFunSuite with PropSupport {

  test("a falsified property names each argument's unshrunk draw") {
    // Int shrinking heads for 0, outside the generator's 1..10.
    val msg = intercept[TestFailedException](checkProp(Prop.forAll(Gen.choose(1, 10))(_ => false))).getMessage
    val unshrunk = "unshrunk (-?\\d+)".r.findFirstMatchIn(msg).map(_.group(1).toInt)
    assert(unshrunk.exists((1 to 10).contains), msg)
  }
}
