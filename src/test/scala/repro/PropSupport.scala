package repro

import org.scalacheck.{Prop, Test => SCTest}
import org.scalatest.Assertions

/** Minimal scalatest/scalacheck bridge (the scalatestplus artifact is not
  * in the offline cache): run a Prop and fail the surrounding test with the
  * counter-example on falsification.
  */
trait PropSupport extends Assertions {
  def checkProp(prop: Prop, minTests: Int = 200): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(minTests), prop)
    assert(res.passed, s"property falsified: ${PropSupport.describe(res.status)}")
  }
}

object PropSupport {
  /** A falsified status with each argument's original draw beside its
    * shrunk value: shrinking may leave the generator's range, so the shrunk
    * value alone can be an input the property never meant to accept.
    */
  def describe(status: SCTest.Status): String = {
    def args(as: List[Prop.Arg[Any]]) = as.zipWithIndex.map { case (a, i) =>
      s"arg $i: ${a.arg} after ${a.shrinks} shrinks, unshrunk ${a.origArg}"
    }.mkString("; ")
    status match {
      case SCTest.Failed(as, labels) => s"Failed (${args(as)}) labels $labels"
      case SCTest.PropException(as, e, labels) => s"PropException $e (${args(as)}) labels $labels"
      case other => other.toString
    }
  }
}
