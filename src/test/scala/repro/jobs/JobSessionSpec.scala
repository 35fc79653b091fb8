package repro.jobs

import java.io.{ByteArrayOutputStream, PrintStream}
import java.nio.charset.StandardCharsets
import org.scalatest.funsuite.AnyFunSuite

class JobSessionSpec extends AnyFunSuite {

  test("jobs print UTF-8 whatever the charset of System.out") {
    val buf = new ByteArrayOutputStream
    val out = System.out
    System.setOut(new PrintStream(buf, true, "US-ASCII"))
    try JobSession.printUtf8("μ —") finally System.setOut(out)
    assert(buf.toByteArray.toSeq == ("μ —" + System.lineSeparator).getBytes(StandardCharsets.UTF_8).toSeq)
  }
}
