package repro.dist

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.triangles.TriangleEnum

/** Distributed index-free (k, δ)-truss query over a grouped temporal edge
  * DataFrame `(src, dst, ts: array<int>)` — the dataflow counterpart of
  * §III for graphs that do not fit a driver.
  *
  * Each round enumerates the δ-triangles of the surviving edge set with the
  * Catalyst join pipeline of [[TriangleEnum]], aggregates per-edge
  * δ-supports, and drops edges below `k−2`; the fixpoint is the
  * (k, δ)-truss. Synchronous-round peeling computes the same fixpoint as
  * sequential peeling because the support function is monotone in the edge
  * set. The loop terminates: every round that does not reach the fixpoint
  * removes at least one edge. Lineage is truncated every round
  * with `localCheckpoint` — without it the plan doubles per iteration.
  */
object DistTruss {

  def kdTruss(spark: SparkSession, edges: DataFrame, k: Int, delta: Int): DataFrame = {
    if (k <= 2) return edges
    var cur = edges.localCheckpoint(true)
    var curCount = cur.count()
    var converged = curCount == 0
    while (!converged) {
      val tri = TriangleEnum.triangles(cur).filter(col("mts") <= delta)
      val sup = tri
        .select(explode(array(
          struct(col("a").as("src"), col("b").as("dst")),
          struct(col("b").as("src"), col("c").as("dst")),
          struct(col("a").as("src"), col("c").as("dst")),
        )).as("e"))
        .groupBy(col("e.src").as("src"), col("e.dst").as("dst"))
        .agg(count(lit(1)).as("sup"))
      val next = cur
        .join(sup, Seq("src", "dst"), "left")
        .filter(coalesce(col("sup"), lit(0L)) >= (k - 2).toLong)
        .drop("sup")
        .localCheckpoint(true)
      val nextCount = next.count()
      converged = nextCount == curCount
      cur = next
      curCount = nextCount
    }
    cur
  }
}
