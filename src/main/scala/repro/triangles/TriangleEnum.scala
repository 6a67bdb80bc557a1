package repro.triangles

import org.apache.spark.sql.SparkSession
import repro.tgraph.TemporalGraph

/** Spark triangle enumeration with minimum-time-span evaluation.
  *
  * Per the paper's complexity analysis, the dominant cost of both the online
  * algorithm and index construction is `O(Σ min(deg) + |τ|·|Δ|)`: listing all
  * triangles and evaluating mts over their timestamp arrays. Every graph is
  * driver-resident, and [[triangleSet]] enumerates it as one Spark job over a
  * broadcast upper adjacency, each task running the sorted-merge kernel of
  * [[DriverTriangles]] over a range of its positions. The fine-grained peeling
  * state machines (DBA/MBA) then consume the collected δ-triangle list on
  * the driver. Tests check the job's output against the driver kernel, a
  * DuckDB SQL oracle and GraphX triangle counts.
  *
  * The broadcast job splits the driver's own loop across the cores: on
  * `local[4]` it has a fixed cost of about 50 ms per call and is on par with
  * [[DriverTriangles.enumerate]] from about 170K edges (DESIGN.md §1,
  * "Spark/driver crossover").
  */
object TriangleEnum {

  /** Triangles of a driver-resident graph as one Spark job: the graph's
    * primitive arrays are broadcast once, each of `defaultParallelism` tasks
    * runs the [[DriverTriangles.enumerateRange]] kernel over a contiguous
    * range of upper-adjacency positions (one per edge), and the packed task
    * outputs are concatenated in range order — so the result equals
    * [[DriverTriangles.enumerate]] tuple for tuple, in the same order.
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
}
