package repro.triangles

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.tgraph.TemporalGraph

/** Spark triangle enumeration with minimum-time-span evaluation.
  *
  * Per the paper's complexity analysis, the dominant cost of both the online
  * algorithm and index construction is `O(Σ min(deg) + |τ|·|Δ|)`: listing all
  * triangles and evaluating mts over their timestamp arrays. Two paths run
  * it here:
  *
  *  - [[triangleSet]], for a driver-resident graph (every index build):
  *    one Spark job over a broadcast adjacency, each task running the
  *    sorted-merge kernel of [[DriverTriangles]] over a range of edge ids.
  *    The fine-grained peeling state machines (DBA/MBA) then consume the
  *    collected δ-triangle list on the driver.
  *  - [[triangles]], for DataFrame-resident edges: a relational triple
  *    self-join, used by `DistTruss` and [[mtsHistogram]] and checked
  *    against the DuckDB and GraphX oracles.
  *
  * For driver-resident graphs the self-join cost about 15× the
  * single-threaded driver loop on wikitalk-lite, all of it fixed Catalyst
  * overhead. The broadcast job splits the driver's own loop across the
  * cores: on `local[4]` it has a fixed cost of about 50 ms per call and is on
  * par with [[DriverTriangles.enumerate]] from about 170K edges (DESIGN.md
  * §1, "Spark/driver crossover").
  */
object TriangleEnum {

  /** UDF wrapper over [[Mts.of]]; inputs are sorted timestamp arrays. */
  val mtsUdf = udf { (a: Seq[Int], b: Seq[Int], c: Seq[Int]) =>
    Mts.of(a.toArray, b.toArray, c.toArray)
  }

  /** All triangles `a < b < c` of a grouped edge DataFrame
    * `(src, dst, ts: array<int>)` with `src < dst`, as
    * `(a, b, c, mts)`.
    *
    * Join shape: `(a,b) ⋈_{b} (b,c) ⋈_{(a,c)} (a,c)` — each triangle is
    * produced exactly once because every edge is stored with `src < dst`.
    */
  def triangles(edges: DataFrame): DataFrame = {
    val e1 = edges.select(col("src").as("a"), col("dst").as("b"), col("ts").as("ts_ab"))
    val e2 = edges.select(col("src").as("b2"), col("dst").as("c"), col("ts").as("ts_bc"))
    val e3 = edges.select(col("src").as("a3"), col("dst").as("c3"), col("ts").as("ts_ac"))
    e1.join(e2, col("b") === col("b2"))
      .join(e3, col("a") === col("a3") && col("c") === col("c3"))
      .select(
        col("a"), col("b"), col("c"),
        mtsUdf(col("ts_ab"), col("ts_bc"), col("ts_ac")).as("mts"),
      )
  }

  /** Triangles of a driver-resident graph as one Spark job: the graph's
    * primitive arrays are broadcast once, each of `defaultParallelism` tasks
    * runs the [[DriverTriangles.enumerateRange]] kernel over a contiguous
    * range of edge ids, and the packed task outputs are concatenated in
    * range order — so the result equals [[DriverTriangles.enumerate]] tuple
    * for tuple, in the same order.
    */
  def triangleSet(spark: SparkSession, g: TemporalGraph): TriangleSet = {
    val sc = spark.sparkContext
    val arrays = sc.broadcast(GraphArrays.of(g))
    try {
      val m = g.m
      val parts = sc.defaultParallelism
      val packed = sc.parallelize(0 until parts, parts).map { i =>
        DriverTriangles.enumerateRange(arrays.value, (m.toLong * i / parts).toInt, (m.toLong * (i + 1) / parts).toInt)
      }.collect()
      TriangleSet.fromPacked(Array.concat(packed: _*), m)
    } finally arrays.destroy()
  }

  /** Distribution of triangle counts over mts (the paper's Fig 9 / empirical
    *-study aggregation), as `(mts, cnt)`.
    */
  def mtsHistogram(edges: DataFrame): DataFrame =
    triangles(edges).groupBy("mts").agg(count(lit(1)).as("cnt")).orderBy("mts")
}
