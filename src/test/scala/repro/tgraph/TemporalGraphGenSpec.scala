package repro.tgraph

import org.scalatest.funsuite.AnyFunSuite
import repro.triangles.DriverTriangles

/** Synthetic dataset generator (S2): determinism and statistical shape. */
class TemporalGraphGenSpec extends AnyFunSuite {

  private lazy val tiny = TemporalGraphGen.GenCfgForTest

  test("generation is deterministic in the seed") {
    val a = TemporalGraphGen.generate(tiny)
    val b = TemporalGraphGen.generate(tiny)
    assert(a.edges.map(e => (e.u, e.v, e.ts.toSeq)).toSeq ==
      b.edges.map(e => (e.u, e.v, e.ts.toSeq)).toSeq)
  }

  test("different seeds give different graphs") {
    val a = TemporalGraphGen.generate(tiny)
    val b = TemporalGraphGen.generate(tiny.copy(seed = 2))
    assert(a.edges.map(e => (e.u, e.v)).toSeq != b.edges.map(e => (e.u, e.v)).toSeq)
  }

  test("timestamps respect the horizon") {
    val g = TemporalGraphGen.generate(tiny)
    assert(g.tMin >= 0 && g.tMax < tiny.horizon)
  }

  test("graph has triangles and a nontrivial truss hierarchy") {
    val g = TemporalGraphGen.generate(tiny)
    val ts = DriverTriangles.enumerate(g)
    assert(ts.size > 50, s"expected triangles, got ${ts.size}")
    assert(GraphStats.kMaxOf(ts) >= 4)
  }

  test("mts distribution is wide (bursty + uniform mixture, Fig 9 shape)") {
    val g = TemporalGraphGen.generate(tiny)
    val ts = DriverTriangles.enumerate(g)
    val mtss = ts.tris.map(_.mts)
    // spread: both tight (< 10% horizon) and loose (> 40% horizon) triangles
    assert(mtss.count(_ < tiny.horizon / 10) > 0, "no tight triangles")
    assert(mtss.count(_ > (tiny.horizon * 0.4).toInt) > 0, "no loose triangles")
  }

  test("coarsening shrinks deltaMax but preserves the static graph") {
    val g = TemporalGraphGen.generate(tiny)
    val c = TemporalGraphGen.coarsen(g, 10)
    assert(c.edges.map(e => (e.u, e.v)).toSeq == g.edges.map(e => (e.u, e.v)).toSeq)
    val tsC = DriverTriangles.enumerate(c)
    val tsG = DriverTriangles.enumerate(g)
    assert(tsC.size == tsG.size)
    assert(tsC.deltaMax <= tsG.deltaMax / 10 + 1)
  }

  test("coarsening buckets exactly factor consecutive stamps on both sides of 0, and rejects factor < 1") {
    // one edge per stamp in -7..7, so each bucket's edges are the stamps it merged
    val stamps = -7 to 7
    val g = TemporalGraph.fromInteractions(stamps.map(t => (0, t + 8, t)))
    for (factor <- 1 to 4) {
      val c = TemporalGraphGen.coarsen(g, factor)
      assert(c.m == g.m)
      val byBucket = (0 until c.m).groupBy(e => c.timestamps(e).head).map { case (b, es) => b -> es.map(c.v(_) - 8).sorted }
      for ((b, ts) <- byBucket) {
        val full = (b * factor until (b + 1) * factor).filter(stamps.contains)
        assert(ts == full, s"factor $factor bucket $b")
      }
      assert(byBucket.values.flatten.toSeq.sorted == stamps)
    }
    for (bad <- Seq(0, -2)) intercept[IllegalArgumentException](TemporalGraphGen.coarsen(g, bad))
  }

  test("all eight dataset analogs are registered and resolvable by name") {
    assert(TemporalGraphGen.datasets.size == 8)
    for (cfg <- TemporalGraphGen.datasets)
      assert(TemporalGraphGen.byName(cfg.name) == cfg)
    intercept[RuntimeException](TemporalGraphGen.byName("nope"))
  }

  test("analog horizons match the paper's Table I n column") {
    val n = TemporalGraphGen.datasets.map(c => c.name -> c.horizon).toMap
    assert(n("email-lite") == 803)
    assert(n("youtube-lite") == 225) // the small-n compression outlier
    assert(n("stackoverflow-lite") == 2774)
  }
}
