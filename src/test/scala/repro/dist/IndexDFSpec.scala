package repro.dist

import repro.SparkSpec
import repro.core.{MBA, TCIndex, TestGraphs}
import repro.triangles.DriverTriangles

/** The DataFrame-backed TC-Index (S14) against the in-memory TC-Index. */
class IndexDFSpec extends SparkSpec {

  for (seed <- 0 until 3) {
    test(s"seed=$seed: IndexDF query equals in-memory TC-Query on sampled (k,δ)") {
      val g = TestGraphs.random(seed + 30)
      val ts = DriverTriangles.enumerate(g)
      val table = MBA.build(ts)
      val idx = TCIndex.fromTable(table)
      val df = IndexDF.tcToDF(spark, table, g).cache()
      try {
        for (k <- 3 to math.min(idx.kMax, 5); d <- Seq(0, ts.deltaMax / 2, ts.deltaMax)) {
          val viaDf = IndexDF.query(df, k, d).collect()
            .map(r => (r.getInt(0), r.getInt(1))).toSet
          assert(viaDf == IndexDF.inMemoryQueryEdges(idx, g, k, d), s"k=$k d=$d")
        }
      } finally df.unpersist()
    }
  }
}
