package repro.triangles

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.{MBA, TestGraphs}
import repro.core.maintenance.{DynamicState, IndexMaintenance}
import repro.dist.GraphXCheck
import repro.tgraph.{TemporalGraph, TemporalGraphGen}

/** Spark triangle enumeration + mts (S4) against the driver reference, a
  * DuckDB SQL oracle, and GraphX triangle counting.
  */
class TriangleEnumSpec extends SparkSpec {
  import spark.implicits._

  /** A triangle list keyed by edge ids, as vertex triples `a < b < c`
    * with their mts, in a DataFrame `(a, b, c, mts)`.
    */
  private def vertexTris(g: TemporalGraph, ts: TriangleSet): DataFrame =
    ts.tris.toSeq.map { t =>
      val vs = Array(t.e1, t.e2, t.e3).flatMap(e => Array(g.edges(e).u, g.edges(e).v))
        .distinct.sorted
      (vs(0), vs(1), vs(2), t.mts)
    }.toDF("a", "b", "c", "mts")

  /** Every triangle `a < b < c` of the exploded temporal edges `te` with
    * its mts: the smallest window over one interaction of each pair.
    */
  private val mtsSql =
    """SELECT e1.src AS a, e1.dst AS b, e2.dst AS c,
      |       min(greatest(CAST(e1.t AS INT), CAST(e2.t AS INT), CAST(e3.t AS INT)) -
      |           least(CAST(e1.t AS INT), CAST(e2.t AS INT), CAST(e3.t AS INT))) AS mts
      |FROM te e1
      |JOIN te e2 ON e1.dst = e2.src
      |JOIN te e3 ON e1.src = e3.src AND e2.dst = e3.dst
      |GROUP BY e1.src, e1.dst, e2.dst
      |""".stripMargin

  /** The job's triangles, as vertex triples with mts, equal DuckDB's. */
  private def assertMatchesDuckDB(g: TemporalGraph, viaJob: TriangleSet): Unit =
    Oracle.assertEquivalent(vertexTris(g, viaJob), mtsSql, "te" -> TemporalGraph.toDF(spark, g))

  /** The broadcast job equals the driver kernel tuple for tuple, in order,
    * and the DuckDB SQL oracle as vertex triples with mts.
    */
  private def assertPathsAgree(g: TemporalGraph): Unit = {
    val arrays = GraphArrays.of(g) // the graph's own columns, which the job broadcasts
    assert((arrays.upStart eq g.upStart) && (arrays.up eq g.up) && (arrays.tsStart eq g.tsStart) && (arrays.ts eq g.ts))
    val viaJob = TriangleEnum.triangleSet(spark, g)
    val viaDriver = DriverTriangles.enumerate(g)
    assert(viaJob.m == g.m)
    assert(viaJob.tris.toSeq == viaDriver.tris.toSeq)
    assertMatchesDuckDB(g, viaJob)
  }

  for (seed <- 0 until 6) {
    test(s"random graph seed=$seed: Spark enumeration equals driver reference (with mts)") {
      assertPathsAgree(TestGraphs.random(seed))
    }
  }

  test("running example: Spark and driver agree") {
    assertPathsAgree(TestGraphs.running)
  }

  for ((name, g) <- Seq(
    "empty graph" -> new TemporalGraph(Array.empty),
    "triangle-free star" -> TemporalGraph((1 to 8).map(v => (0, v, Seq(v, 2 * v))): _*),
    // three edges: on four or more cores, fewer than defaultParallelism, so
    // some tasks get no edges
    "single triangle" -> TemporalGraph((0, 1, Seq(1, 9)), (1, 2, Seq(4)), (0, 2, Seq(7))),
  )) {
    test(s"$name: Spark and driver agree") {
      assertPathsAgree(g)
    }
  }

  test("maintained graph's snapshot, ids out of (u, v) order: Spark, driver and DuckDB agree") {
    val g = TestGraphs.random(21)
    val ts = DriverTriangles.enumerate(g)
    val st = DynamicState.fromGraph(g, ts, MBA.build(ts))
    val rnd = new scala.util.Random(21)
    // new pairs, some at new vertices, appended as new edges; new stamps on old ones
    for (_ <- 0 until 40) {
      val u = rnd.nextInt(17); val v = (u + 1 + rnd.nextInt(16)) % 17
      IndexMaintenance.insert(st, u, v, rnd.nextInt(30))
    }
    val snap = st.snapshotGraph
    assert(snap.m > g.m && !snap.up.indices.forall(p => TemporalGraph.eidOf(snap.up(p)) == p))
    assertPathsAgree(snap)
    val order = Ordering.by((t: Tri) => (t.e1, t.e2, t.e3, t.mts))
    assert(DriverTriangles.enumerate(snap).tris.sorted(order).toSeq == st.snapshotTriangles.tris.sorted(order).toSeq)
  }

  test("oracle: triangle-with-mts result matches DuckDB SQL over exploded temporal edges") {
    val g = TestGraphs.random(11, nV = 12, pEdge = 0.4)
    assertMatchesDuckDB(g, TriangleEnum.triangleSet(spark, g))
  }

  test("oracle: static triangle count matches DuckDB") {
    val g = TestGraphs.random(12, nV = 14, pEdge = 0.45)
    val sparkDf = Seq(TriangleEnum.triangleSet(spark, g).size.toLong).toDF("tri_cnt")
    val sql =
      """SELECT count(*) AS tri_cnt
        |FROM e e1 JOIN e e2 ON e1.dst = e2.src
        |JOIN e e3 ON e1.src = e3.src AND e2.dst = e3.dst""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql,
      "e" -> g.edges.toSeq.map(e => (e.u, e.v)).toDF("src", "dst"))
  }

  for (seed <- Seq(3, 7)) {
    test(s"graphx cross-check seed=$seed: vertex triangle counts sum to 3·|Δ|") {
      val g = TestGraphs.random(seed, nV = 16, pEdge = 0.4)
      val expect = DriverTriangles.enumerate(g).size.toLong
      assert(GraphXCheck.totalTriangles(spark, g) == expect)
    }
  }

  test("generator analog graph: spark triangle set builds a consistent TriangleSet") {
    val g = TemporalGraphGen.generate(
      TemporalGraphGen.GenCfgForTest.copy(seed = 5))
    assert(DriverTriangles.enumerate(g).size > 0)
    assertPathsAgree(g)
  }
}
