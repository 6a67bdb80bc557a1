package repro

import org.apache.spark.sql.functions._

/** The temporal-edge generator and the DuckDB oracle it feeds. */
class SynthDataSpec extends SparkSpec {

  test("temporalEdges extension produces a canonical temporal edge stream") {
    val df = SynthData.temporalEdges(spark, "email-lite")
    assert(df.columns.toSeq == Seq("src", "dst", "t"))
    assert(df.filter(col("src") >= col("dst")).count() == 0)
    assert(df.count() > 10000)
  }

  test("oracle cross-check: per-source edge counts match DuckDB") {
    val g = repro.core.TestGraphs.random(5)
    val te = repro.tgraph.TemporalGraph.toDF(spark, g)
    val sparkDf = te.groupBy("src").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT src, count(*) AS cnt FROM te GROUP BY src", "te" -> te)
  }

  test("oracle catches wrong results (sanity of the checker itself)") {
    val g = repro.core.TestGraphs.random(6)
    val te = repro.tgraph.TemporalGraph.toDF(spark, g)
    val wrong = te.groupBy("src").agg((count(lit(1)) + 1).as("cnt"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT src, count(*) AS cnt FROM te GROUP BY src", "te" -> te)
    }
  }
}
