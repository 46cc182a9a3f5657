package repro

import org.apache.spark.sql.functions._

/** Self-tests of the DuckDB oracle on the graph DataFrames — keeps the
  * correctness harness itself honest (a broken canonicalization or
  * insertion path would silently weaken every other oracle test).
  */
class OracleSynthDataSpec extends SparkSpec {

  private lazy val g = Fixtures.tiny

  test("oracle catches wrong results (self-test)") {
    val edges = g.edgeDF(spark)
    val wrong = edges.agg((count(lit(1)) + 1) as "cnt") // off by one
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT count(*) AS cnt FROM edges", "edges" -> edges)
    }
  }

  test("oracle catches column-name mismatches (self-test)") {
    val attrs = g.attrDF(spark)
    val q = attrs.agg(count(lit(1)) as "wrong_name")
    assertThrows[IllegalArgumentException] {
      Oracle.assertEquivalent(q, "SELECT count(*) AS cnt FROM attrs", "attrs" -> attrs)
    }
  }
}
