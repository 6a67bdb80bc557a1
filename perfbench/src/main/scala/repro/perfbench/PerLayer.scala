package repro.perfbench

/** Names and units of every reported metric, in report order. They must
  * match `BENCHMARK.json` at the repository root (a test checks this).
  */
object Spec {
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "op_p50_ms" -> "ms",
    "op_tail_ms" -> "ms",
    "index_mb" -> "MB",
    "retained_heap_mb" -> "MB",
  )

  /** Per-layer metrics of a traced run: a span name's median per-call time,
    * or a gauge the workload recorded.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "setup.session_ms" -> "ms",
    "tgraph.ingest_ms" -> "ms",
    "tgraph.edges" -> "count",
    "tgraph.interactions" -> "count",
    "triangles.spark_enum_collect_ms" -> "ms",
    "triangles.driver_enum_ms" -> "ms",
    "triangles.spark_over_driver" -> "ratio",
    "triangles.count" -> "count",
    "triangles.distinct_mts" -> "count",
    "triangles.delta_max" -> "count",
    "truss.trussness_ms" -> "ms",
    "core.mba_ms" -> "ms",
    "core.dba_ms" -> "ms",
    "core.tc_build_ms" -> "ms",
    "core.dc_build_ms" -> "ms",
    "core.kmax" -> "count",
    "core.tc_entries" -> "count",
    "core.dc_entries" -> "count",
    "core.dc_nodes" -> "count",
    "build.total_ms" -> "ms",
    "build.unaccounted_ms" -> "ms",
    "core.tc_query_us" -> "us",
    "core.dc_query_us" -> "us",
    "core.online_query_ms" -> "ms",
    "core.answer_edges_per_query" -> "count",
    "maintenance.kspan_repair_p50_ms" -> "ms",
    "maintenance.kspan_repair_tail_ms" -> "ms",
    "maintenance.table_view_ms" -> "ms",
    "maintenance.new_static_edge_share" -> "ratio",
    "maintenance.verified_ks" -> "count",
    "maintenance.region_edges" -> "count",
    "maintenance.changed_spans" -> "count",
    "maintenance.changed_levels" -> "count",
    "maintenance.changed_spans_per_region_edge" -> "ratio",
    "core.tc_refresh_ms" -> "ms",
    "core.dc_refresh_ms" -> "ms",
    "core.fresh_query_us" -> "us",
    "trace.overhead_pct" -> "%",
    "trace.spans" -> "count",
    "failed_share" -> "ratio",
  )
}

/** Derives the per-layer metrics of a traced run from its spans. */
object PerLayer {

  /** Span name behind each timing metric, with the scale from ns. */
  private val timed: Map[String, (String, Double)] = Map(
    "tgraph.ingest_ms" -> ("tgraph.ingest", 1e6),
    "triangles.spark_enum_collect_ms" -> ("triangles.spark_enum_collect", 1e6),
    "triangles.driver_enum_ms" -> ("triangles.driver_enum", 1e6),
    "truss.trussness_ms" -> ("truss.trussness", 1e6),
    "core.mba_ms" -> ("core.mba", 1e6),
    "core.dba_ms" -> ("core.dba", 1e6),
    "core.tc_build_ms" -> ("core.tc_build", 1e6),
    "core.dc_build_ms" -> ("core.dc_build", 1e6),
    "core.tc_query_us" -> ("core.tc_query", 1e3),
    "core.dc_query_us" -> ("core.dc_query", 1e3),
    "core.online_query_ms" -> ("core.online_query", 1e6),
    "maintenance.table_view_ms" -> ("maintenance.table_view", 1e6),
    "core.tc_refresh_ms" -> ("core.tc_refresh", 1e6),
    "core.dc_refresh_ms" -> ("core.dc_refresh", 1e6),
    "core.fresh_query_us" -> ("core.fresh_query", 1e3),
  )

  def derive(ctx: Ctx, times: Workloads.LoopTimes, b: Workloads.Built,
             dataset: Seq[(String, Double)]): Seq[Metric] = {
    val spans = ctx.tracer.spans
    val self = Trace.selfTimes(spans)
    val byName = spans.groupBy(_.name)
    def perCall(name: String, scale: Double): Seq[Double] =
      byName.getOrElse(name, Nil).map(s => s.durNs / scale / s.items)
    def med(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else Stats.median(xs)
    def one(name: String, unit: String, v: Double) = Metric(name, unit, v, Seq(v))
    val ds = dataset.toMap

    val buildSpans = byName.getOrElse("build", Nil)
    val sparkMs = med(perCall("triangles.spark_enum_collect", 1e6))
    val driverMs = med(perCall("triangles.driver_enum", 1e6))
    val overhead =
      if (times.untracedMs.isEmpty || times.tracedMs.isEmpty) Double.NaN
      else (Stats.median(times.tracedMs) / Stats.median(times.untracedMs) - 1) * 100

    val computed: Map[String, Metric] = Seq(
      one("setup.session_ms", "ms", ctx.sessionStartMs),
      one("tgraph.edges", "count", ds("edges")),
      one("tgraph.interactions", "count", ds("interactions")),
      one("triangles.spark_over_driver", "ratio", sparkMs / driverMs),
      one("triangles.count", "count", ds("triangles")),
      one("triangles.distinct_mts", "count", ds("distinct_mts")),
      one("triangles.delta_max", "count", ds("delta_max")),
      one("core.kmax", "count", ds("kmax")),
      one("core.tc_entries", "count", b.tc.totalEdgeEntries.toDouble),
      one("core.dc_entries", "count", b.dc.totalEdgeEntries.toDouble),
      one("core.dc_nodes", "count", b.dc.nodes.length.toDouble),
      {
        val xs = buildSpans.map(_.durNs / 1e6)
        Metric("build.total_ms", "ms", med(xs), xs)
      },
      {
        val xs = buildSpans.map(s => self(s.id) / 1e6)
        Metric("build.unaccounted_ms", "ms", med(xs), xs)
      },
      one("trace.overhead_pct", "%", overhead),
      one("trace.spans", "count", spans.length.toDouble),
      one("failed_share", "ratio", ctx.failed.toDouble / math.max(1, ctx.attempted)),
    ).map(m => m.name -> m).toMap ++ timed.map { case (metric, (span, scale)) =>
      val xs = perCall(span, scale)
      metric -> Metric(metric, Spec.PerLayer.toMap.apply(metric), med(xs), xs)
    } ++ ctx.gauges

    Spec.PerLayer.map { case (name, unit) =>
      computed.getOrElse(name, Metric(name, unit, Double.NaN, Nil)).copy(unit = unit)
    }
  }
}
