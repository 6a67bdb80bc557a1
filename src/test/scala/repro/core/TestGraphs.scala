package repro.core

import scala.util.Random
import repro.tgraph.{TemporalGraph, TemporalGraphGen}
import repro.triangles.{DriverTriangles, TriangleSet}
import repro.Refs._

/** Shared fixtures for the driver-side algorithm suites. */
object TestGraphs {

  /** A hand-built 11-vertex temporal graph in the spirit of the paper's
    * running example (Fig 1): a dense 5-clique core {6..10} with tight
    * timestamps, a looser ring {0..5} and bridges — it exhibits kmax = 5
    * and several distinct k-spans.
    */
  lazy val running: TemporalGraph = TemporalGraph(
    // tight core: 5-clique on 6..10, interactions clustered around t=10
    (6, 7, Seq(9, 12)), (6, 8, Seq(10)), (6, 9, Seq(10, 11)), (6, 10, Seq(9)),
    (7, 8, Seq(11, 30)), (7, 9, Seq(10)), (7, 10, Seq(12)),
    (8, 9, Seq(10, 25)), (8, 10, Seq(11)), (9, 10, Seq(10)),
    // mid community 1..5 with spread-out interactions
    (1, 2, Seq(2, 20)), (1, 3, Seq(5)), (2, 3, Seq(8)),
    (2, 7, Seq(3)), (2, 8, Seq(18)), (3, 7, Seq(6)), (3, 8, Seq(22)),
    (4, 5, Seq(14)), (4, 6, Seq(2)), (4, 7, Seq(15)), (5, 6, Seq(16)), (5, 7, Seq(17)),
    // periphery
    (0, 1, Seq(1)), (0, 3, Seq(28)), (2, 5, Seq(6)),
  )

  /** A small random temporal graph for property tests: each pair of `nV`
    * vertices is an edge with probability `pEdge`, with 1 to `maxStamps`
    * timestamps in `[0, horizon)`.
    */
  def random(seed: Int, nV: Int = 14, pEdge: Double = 0.35,
             horizon: Int = 30, maxStamps: Int = 3): TemporalGraph = {
    val rnd = new Random(seed)
    val rows = for {
      u <- 0 until nV
      v <- (u + 1) until nV
      if rnd.nextDouble() < pEdge
      k = 1 + rnd.nextInt(maxStamps)
      t <- Seq.fill(k)(rnd.nextInt(horizon))
    } yield (u, v, t)
    TemporalGraph.fromInteractions(rows)
  }

  def tris(g: TemporalGraph): TriangleSet = DriverTriangles.enumerate(g)

  /** The generator's test config with a planted 14-clique on vertices
    * 0..13, minus 16 seeded interactions on clique edges: 530 edges, 613
    * triangles, kmax 12. Returns the graph and the removed interactions,
    * whose reinsertion touches the top levels of the clique.
    */
  lazy val plantedCore: (TemporalGraph, Seq[(Int, Int, Int)]) = {
    val g = TemporalGraphGen.generate(TemporalGraphGen.GenCfgForTest.copy(coreCliqueSize = 14))
    val all = g.edges.toSeq.flatMap(e => e.ts.map(t => (e.u, e.v, t)))
    val removed = new Random(3).shuffle(all.filter(_._2 < 14)).take(16)
    (TemporalGraph.fromInteractions(all.diff(removed)), removed)
  }

  /** A table with the trussness `trn` and the k-span rows `spans`, written
    * through [[KSpanTable.allocate]] and `setSpan` in `(e, slot)` order, so
    * its level orders are built as the entries arrive, in no span order.
    */
  def table(trn: Array[Int], spans: Array[Array[Int]], deltaMax: Int): KSpanTable = {
    require(trn.length == spans.length, "one k-span row per edge")
    val t = KSpanTable.allocate(trn, deltaMax)
    for (e <- trn.indices; i <- spans(e).indices) t.setSpan(e, i + 3, spans(e)(i))
    t
  }

  /** Brute-force edge set of T_{k,δ}: fixpoint peeling over δ-triangles. */
  def bruteTruss(ts: TriangleSet, k: Int, delta: Int): Set[Int] =
    fixpointTruss(ts, k, i => ts.mts(i) <= delta)

  /** The paper's Fig 11/12 sweep grid, as perfbench's `query` workload
    * sweeps it: k at 20–90% of kmax (at least 3), δ at 10–100% of δmax.
    */
  def fig11Grid(kMax: Int, deltaMax: Int): Seq[(Int, Int)] =
    (for (kf <- 2 to 9; df <- 1 to 10)
      yield (math.max(3, math.round(kf / 10.0 * kMax).toInt), math.round(df / 10.0 * deltaMax).toInt)).distinct

  /** All (k, δ) pairs worth checking exhaustively on a small graph. */
  def allParams(ts: TriangleSet, kMax: Int): Seq[(Int, Int)] =
    for (k <- 3 to (kMax + 1); d <- 0 to (ts.deltaMax + 1)) yield (k, d)
}
