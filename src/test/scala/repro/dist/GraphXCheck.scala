package repro.dist

import org.apache.spark.graphx.{Edge, Graph, PartitionStrategy}
import org.apache.spark.sql.SparkSession
import repro.tgraph.TemporalGraph

/** GraphX-based triangle counting, used as an independent validation path
  * for the triangle enumerator (the repro hint's GraphX leg):
  * `Σ_v tc(v) / 3` must equal `|Δ|`.
  */
object GraphXCheck {

  def totalTriangles(spark: SparkSession, g: TemporalGraph): Long = {
    val sc = spark.sparkContext
    val edgeRdd = sc.parallelize(
      g.edges.toIndexedSeq.map(e => Edge(e.u.toLong, e.v.toLong, 1))
    )
    val graph = Graph.fromEdges(edgeRdd, defaultValue = 0)
      .partitionBy(PartitionStrategy.RandomVertexCut)
    val tc = graph.triangleCount()
    tc.vertices.map(_._2.toLong).sum().toLong / 3
  }
}
