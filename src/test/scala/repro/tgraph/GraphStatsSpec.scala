package repro.tgraph

import repro.SparkSpec
import repro.core.TestGraphs
import repro.triangles.DriverTriangles
import repro.Refs._

/** Table-I statistics computation (Spark aggregations + driver kmax). */
class GraphStatsSpec extends SparkSpec {

  test("running example stats match driver-side ground truth") {
    val g = TestGraphs.running
    val s = GraphStats.compute(spark, "running", g)
    val ts = DriverTriangles.enumerate(g)
    assert(s.numVertices == g.numVertices)
    assert(s.numEdges == g.m)
    assert(s.numTimestamps == g.numDistinctTimestamps)
    assert(math.abs(s.avgTau - g.avgTimestampsPerEdge) < 1e-9)
    assert(s.numTriangles == ts.size)
    assert(s.deltaMax == ts.deltaMax)
    assert(s.kMax == GraphStats.kMaxOf(ts))
    assert(s.kMax == 5) // the planted 5-clique
  }

  test("triangle-free graph stats") {
    val g = TemporalGraph((0, 1, Seq(1)), (1, 2, Seq(2)))
    val s = GraphStats.compute(spark, "path", g)
    assert(s.numTriangles == 0 && s.kMax == 2 && s.deltaMax == 0)
  }

  test("generated tiny analog: stats are internally consistent") {
    val g = TemporalGraphGen.generate(TemporalGraphGen.GenCfgForTest)
    val s = GraphStats.compute(spark, "tiny", g)
    assert(s.numEdges == g.m)
    assert(s.avgTau >= 1.0)
    assert(s.deltaMax < TemporalGraphGen.GenCfgForTest.horizon)
    assert(s.row.contains("tiny"))
    assert(GraphStats.header.nonEmpty)
  }
}
