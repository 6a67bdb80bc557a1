package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic temporal-graph input for the Spark paths. */
object SynthData {

  /** One of the eight dataset analogs of `repro.tgraph.TemporalGraphGen`,
    * by name (e.g. `"email-lite"`), as the exploded temporal-edge DataFrame
    * `(src, dst, t)` with `src < dst`, at the bench scale. The generator is
    * seeded per dataset, so repeated calls return the same rows.
    */
  def temporalEdges(spark: SparkSession, dataset: String): DataFrame = {
    val g = repro.tgraph.TemporalGraphGen.generate(repro.tgraph.TemporalGraphGen.byName(dataset))
    repro.tgraph.TemporalGraph.toDF(spark, g)
  }
}
