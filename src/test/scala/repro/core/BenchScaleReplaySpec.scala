package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.core.maintenance.{DynamicState, IndexMaintenance}
import repro.tgraph.{TemporalGraph, TemporalGraphGen}
import repro.triangles.DriverTriangles

/** §VI maintenance at the scale of the benchmark: the wikitalk-lite analog
  * minus a held-out set of interactions, reinserted one at a time while one
  * TC and one DC are held over the live table. Two held-out sets:
  * perfbench's `insert` sample (the generator at the run's seed, 3,000
  * interactions picked by `Random(seed + 7)`), reinserted in sample order,
  * and the last 3,000 interactions by timestamp, reinserted in time order
  * as real data arrives. Both hold new-edge reinserts into the planted
  * core, the slowest of the workload, each of which verifies dozens of
  * levels and fills the new k-span slots of every level it reaches. Every
  * 50 inserts the held DC, each of whose rows is derived when a read
  * reaches it, equals one derived from scratch over a copy of the table,
  * and its answers on the Fig 11/12 grid equal the node-by-node union
  * along each representative's path;
  * every 500 inserts and after the last, [[Canonical.assertFresh]] holds
  * the live table and both indexes to an MBA rebuild.
  */
class BenchScaleReplaySpec extends AnyFunSuite {

  private val seed = 71
  private val sampleSize = 3000

  private lazy val all: Array[(Int, Int, Int)] = {
    val g0 = TemporalGraphGen.generate(TemporalGraphGen.byName("wikitalk-lite").copy(seed = seed))
    g0.edges.iterator.flatMap(e => e.ts.iterator.map(t => (e.u, e.v, t))).toArray
  }

  test(s"wikitalk-lite seed=$seed: reinsert perfbench's $sampleSize held-out interactions, kept DC == fresh") {
    val r = new Random(seed + 7)
    val picked = new java.util.BitSet(all.length)
    val sample = scala.collection.mutable.ArrayBuffer.empty[Int]
    while (sample.length < sampleSize) {
      val i = r.nextInt(all.length)
      if (!picked.get(i)) { picked.set(i); sample += i }
    }
    replay(sample.toSeq)
  }

  test(s"wikitalk-lite seed=$seed: reinsert the last $sampleSize interactions in time order") {
    replay(all.indices.sortBy(all(_)._3).takeRight(sampleSize))
  }

  /** Hold out the interactions `all(i)`, `i ∈ held`, then reinsert them in
    * the order given.
    */
  private def replay(held: Seq[Int]): Unit = {
    val picked = new java.util.BitSet(all.length)
    held.foreach(picked.set)
    val g = TemporalGraph.fromInteractions(all.indices.filterNot(picked.get).map(all))
    val ts = DriverTriangles.enumerate(g)
    val st = DynamicState.fromGraph(g, ts, MBA.build(ts))
    val tc = TCIndex.fromTable(st.tableView)
    val dc = DCIndex.fromTable(st.tableView)

    var maxVerified = 0
    var newEdges = 0
    var rederived = 0.0 // the share of the nodes each insert derived again, summed
    for ((x, i) <- held.zipWithIndex) {
      val (u, v, t) = all(x)
      val rep = IndexMaintenance.insert(st, u, v, t)
      maxVerified = math.max(maxVerified, rep.verifiedKs)
      if (rep.newStaticEdge) newEdges += 1
      rederived += dc.nodesDerived.toDouble / dc.nodes.length
      val ctx = s"insert $i ($u,$v,$t)"
      if ((i + 1) % 50 == 0) {
        Canonical.same(Canonical.dc(dc), Canonical.dc(DCIndex.fromTable(st.tableView.copy())), s"$ctx: the kept DC diverged from a fresh one")
        val ref = GridDC.of(dc)
        for ((k, d) <- TestGraphs.fig11Grid(dc.kMax, dc.deltaMax))
          Canonical.same(dc.query(k, d).toSeq, ref.query(k, d).toSeq, s"$ctx: the kept DC's run copies diverged from its node-by-node path at (k=$k, δ=$d)")
      }
      if ((i + 1) % 500 == 0 || i == held.length - 1)
        Canonical.assertFresh(st, MBA.build(st.snapshotTriangles), tc, dc, ctx)
    }
    assert(newEdges > 0 && maxVerified >= 40, s"no many-level new-edge reinsert: $newEdges new edges, at most $maxVerified levels")
    info(f"$newEdges new-edge reinserts, at most $maxVerified levels verified, mean share of DC nodes derived again ${rederived / held.length}%.3f")
  }
}
