package repro.exp

import java.nio.charset.StandardCharsets.UTF_8
import org.scalatest.funsuite.AnyFunSuite

/** The driver-side tables must not move under a refactor: `Report.all`
  * is compared byte for byte with the copy in `golden/tables.txt`.
  */
class GoldenTablesSpec extends AnyFunSuite {

  test("T1 and E1-E7 tables match the golden copy byte for byte") {
    val in     = getClass.getResourceAsStream("/golden/tables.txt")
    val golden = try in.readAllBytes() finally in.close()
    val got    = Report.all
    assert(got == new String(golden, UTF_8)) // readable diff on failure
    assert(got.getBytes(UTF_8).sameElements(golden))
  }
}
