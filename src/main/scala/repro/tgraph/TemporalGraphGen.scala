package repro.tgraph

import scala.collection.mutable
import scala.util.Random

/** Parameters of the planted-community temporal-graph generator.
  *
  * @param name          dataset-analog name (e.g. "email-lite")
  * @param nVertices     number of vertices
  * @param communitySize vertices per community (vertices are split into
  *                      consecutive blocks of this size)
  * @param pIntra        probability of each intra-community static edge
  * @param nRandomEdges  extra uniformly-random static edges (long-range,
  *                      mostly triangle-free — they thin the truss hierarchy
  *                      like the real graphs' sparse periphery)
  * @param horizon       number of distinct time units `n`; timestamps are in
  *                      `[0, horizon)`
  * @param avgStamps     mean number of timestamps per static edge (`|τ|`)
  * @param burstiness    probability that a timestamp is drawn near one of its
  *                      community's event times (bursty interactions produce
  *                      small-mts triangles; the uniform remainder produces
  *                      the wide mts spread of the paper's Fig 9)
  * @param seed          RNG seed — generation is fully deterministic
  * @param coreCliqueSize size of one planted dense clique on vertices
  *                      `[0, coreCliqueSize)` — it pins `kmax` of the analog
  *                      near the paper dataset's value (a c-clique is a
  *                      c-truss), which community blocks alone cannot reach
  */
final case class GenConfig(
    name: String,
    nVertices: Int,
    communitySize: Int,
    pIntra: Double,
    nRandomEdges: Int,
    horizon: Int,
    avgStamps: Double,
    burstiness: Double,
    seed: Long,
    coreCliqueSize: Int = 0,
)

/** Deterministic synthetic temporal graphs with a controllable truss
  * hierarchy and a wide mts distribution — the offline stand-ins for the
  * paper's eight SNAP/KONECT datasets (see DESIGN.md §3 for the
  * substitution rationale).
  */
object TemporalGraphGen {

  /** Generate the temporal graph of `cfg` (driver-side; sizes here are
    * ≤ ~500K temporal edges, far below Spark-needing scale — Spark
    * enumerates its triangles from a broadcast copy of the driver-side
    * graph, `repro.triangles.TriangleEnum.triangleSet`).
    */
  def generate(cfg: GenConfig): TemporalGraph = {
    val rnd = new Random(cfg.seed)
    val nComm = math.max(1, cfg.nVertices / cfg.communitySize)
    def community(v: Int): Int = math.min(nComm - 1, v / cfg.communitySize)

    // --- static edges ----------------------------------------------------
    val pairs = mutable.LinkedHashSet.empty[(Int, Int)]
    // intra-community Erdős–Rényi blocks
    var c = 0
    while (c < nComm) {
      val lo = c * cfg.communitySize
      val hi = math.min(cfg.nVertices, lo + cfg.communitySize)
      var u = lo
      while (u < hi) {
        var v = u + 1
        while (v < hi) {
          if (rnd.nextDouble() < cfg.pIntra) pairs += ((u, v))
          v += 1
        }
        u += 1
      }
      c += 1
    }
    // planted core clique pinning kmax
    if (cfg.coreCliqueSize > 1) {
      var u = 0
      while (u < cfg.coreCliqueSize) {
        var v = u + 1
        while (v < cfg.coreCliqueSize) { pairs += ((u, v)); v += 1 }
        u += 1
      }
    }
    // long-range random edges
    var r = 0
    while (r < cfg.nRandomEdges) {
      val u = rnd.nextInt(cfg.nVertices)
      val v = rnd.nextInt(cfg.nVertices)
      if (u != v) pairs += (if (u < v) (u, v) else (v, u))
      r += 1
    }

    // --- event times: a few bursts per community (plus the core clique) --
    val events = Array.tabulate(nComm) { _ =>
      val k = 1 + rnd.nextInt(3)
      Array.fill(k)(rnd.nextInt(cfg.horizon))
    }
    val coreEvents = Array.fill(2 + rnd.nextInt(2))(rnd.nextInt(cfg.horizon))

    // --- timestamps per edge --------------------------------------------
    def poisson(mean: Double): Int = {
      // Knuth's method; mean is small (≤ ~12) in all configs
      val l = math.exp(-mean)
      var k = 0; var p = 1.0
      while ({ p *= rnd.nextDouble(); p > l }) k += 1
      k
    }
    val interactions = mutable.ArrayBuffer.empty[(Int, Int, Int)]
    for ((u, v) <- pairs) {
      val cnt = 1 + poisson(math.max(0.0, cfg.avgStamps - 1.0))
      val inCore = v < cfg.coreCliqueSize // u < v, so both endpoints in core
      val sameComm = community(u) == community(v)
      var i = 0
      while (i < cnt) {
        val t =
          if (inCore && rnd.nextDouble() < cfg.burstiness) {
            val base = coreEvents(rnd.nextInt(coreEvents.length))
            val jitter = (rnd.nextGaussian() * math.max(1.0, cfg.horizon / 50.0)).toInt
            math.max(0, math.min(cfg.horizon - 1, base + jitter))
          } else if (sameComm && rnd.nextDouble() < cfg.burstiness) {
            val ev = events(community(u))
            val base = ev(rnd.nextInt(ev.length))
            val jitter = (rnd.nextGaussian() * math.max(1.0, cfg.horizon / 100.0)).toInt
            math.max(0, math.min(cfg.horizon - 1, base + jitter))
          } else rnd.nextInt(cfg.horizon)
        interactions += ((u, v, t))
        i += 1
      }
    }
    TemporalGraph.fromInteractions(interactions)
  }

  /** Coarsen time granularity by merging every `factor` consecutive
    * timestamps into one (the paper's Fig 15 experiment: e.g. day → month),
    * which shrinks `δmax` but leaves the static graph — and hence `kmax` —
    * unchanged. Stamp `t` goes to bucket `⌊t / factor⌋`, rounded down on
    * both sides of 0, so every bucket covers exactly `factor` stamps.
    */
  def coarsen(g: TemporalGraph, factor: Int): TemporalGraph = {
    require(factor >= 1, s"coarsening factor must be at least 1, got $factor")
    TemporalGraph.fromInteractions(g.interactions.map { case (u, v, t) => (u, v, Math.floorDiv(t, factor)) }.toSeq)
  }

  /** The eight dataset analogs (paper Table I, scaled down ~2–100× in |E|
    * so the full bench suite runs on one node; horizons `n` kept at the
    * paper's values because δmax ≈ n drives the compression-ratio story,
    * including the Youtube small-n outlier).
    */
  val datasets: Seq[GenConfig] = Seq(
    GenConfig("email-lite",         nVertices = 900,   communitySize = 30, pIntra = 0.55, nRandomEdges = 4000,  horizon = 803,  avgStamps = 8.0, burstiness = 0.7, seed = 11, coreCliqueSize = 23),
    GenConfig("mathoverflow-lite",  nVertices = 8000,  communitySize = 26, pIntra = 0.45, nRandomEdges = 36000,  horizon = 2450, avgStamps = 1.6, burstiness = 0.6, seed = 12, coreCliqueSize = 42),
    GenConfig("askubuntu-lite",     nVertices = 12000, communitySize = 22, pIntra = 0.47, nRandomEdges = 30000, horizon = 2613, avgStamps = 1.2, burstiness = 0.6, seed = 13, coreCliqueSize = 26),
    GenConfig("superuser-lite",     nVertices = 14000, communitySize = 24, pIntra = 0.42, nRandomEdges = 40000, horizon = 2773, avgStamps = 1.2, burstiness = 0.6, seed = 14, coreCliqueSize = 35),
    GenConfig("wikitalk-lite",      nVertices = 22000, communitySize = 28, pIntra = 0.42, nRandomEdges = 48000, horizon = 2320, avgStamps = 1.4, burstiness = 0.6, seed = 15, coreCliqueSize = 49),
    GenConfig("youtube-lite",       nVertices = 24000, communitySize = 24, pIntra = 0.45, nRandomEdges = 80000, horizon = 225,  avgStamps = 1.0, burstiness = 0.5, seed = 16, coreCliqueSize = 33),
    GenConfig("stackoverflow-lite", nVertices = 30000, communitySize = 34, pIntra = 0.45, nRandomEdges = 90000, horizon = 2774, avgStamps = 1.2, burstiness = 0.6, seed = 17, coreCliqueSize = 79),
    GenConfig("wikipedia-lite",     nVertices = 34000, communitySize = 30, pIntra = 0.42, nRandomEdges = 130000, horizon = 2235, avgStamps = 1.1, burstiness = 0.6, seed = 18, coreCliqueSize = 59),
  )

  /** A tiny config for fast unit tests of the generator pipeline. */
  val GenCfgForTest: GenConfig = GenConfig("test-tiny", nVertices = 120,
    communitySize = 15, pIntra = 0.4, nRandomEdges = 150, horizon = 100,
    avgStamps = 2.0, burstiness = 0.6, seed = 1)

  def byName(name: String): GenConfig =
    datasets.find(_.name == name).getOrElse(sys.error(s"unknown dataset analog: $name"))
}
