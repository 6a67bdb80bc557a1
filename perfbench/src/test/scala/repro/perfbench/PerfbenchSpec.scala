package repro.perfbench

import java.io.File
import scala.jdk.CollectionConverters._
import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.tgraph.TemporalGraphGen.GenCfgForTest

/** Tests of the harness itself, on the generator's tiny test config. */
class PerfbenchSpec extends AnyFunSuite with BeforeAndAfterAll {

  lazy val spark: SparkSession = SparkSession.builder()
    .master("local[2]")
    .appName("perfbench-spec")
    .config("spark.sql.shuffle.partitions", "4")
    .config("spark.ui.enabled", "false")
    .getOrCreate()

  override def afterAll(): Unit = { spark.stop(); super.afterAll() }

  def ctx(traced: Boolean, inject: Boolean = false): Ctx =
    new Ctx(seed = 3, seconds = 0.3, traced = traced, () => spark, injectFault = inject)

  def run(workload: String, c: Ctx): Outcome = workload match {
    case "build"  => Workloads.build(c, GenCfgForTest, expectedKmax = None)
    case "query"  => Workloads.query(c, GenCfgForTest)
    case "insert" => Workloads.insert(c, GenCfgForTest, sampleSize = 60, warmOps = 5)
  }

  /** `(name, unit)` pairs of one section of the repository's BENCHMARK.json. */
  def declared(section: String): Seq[(String, String)] = {
    val f = Seq(new File("../BENCHMARK.json"), new File("BENCHMARK.json")).find(_.isFile)
      .getOrElse(fail("BENCHMARK.json not found next to perfbench/"))
    new ObjectMapper().readTree(f).get(section).elements().asScala
      .map(n => n.get("name").asText() -> n.get("unit").asText()).toSeq
  }

  test("percentile rule: the highest percentile with at least ten samples beyond it") {
    def ramp(n: Int) = Seq.tabulate(n)(i => i + 1.0)
    assert(Stats.upperPercentile(ramp(19)).isEmpty)
    assert(Stats.upperPercentile(ramp(20)).contains((50.0, 10.0)))
    assert(Stats.upperPercentile(ramp(100)).contains((90.0, 90.0)))
    assert(Stats.upperPercentile(ramp(99)).contains((75.0, 75.0)))
    assert(Stats.upperPercentile(ramp(1000)).contains((90.0, 900.0)))
    assert(Stats.tail(Seq(3.0, 1.0, 2.0)) == 3.0) // too few samples: the slowest
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("self time subtracts the union of the children's intervals, clipped to the parent") {
    val spans = Seq(
      Span(0, "root", 0, 100, -1, "r"),
      Span(1, "a", 10, 30, 0, "r"),
      Span(2, "b", 20, 50, 0, "r"),   // overlaps a
      Span(3, "c", 60, 70, 0, "r"),
      Span(4, "a.x", 12, 20, 1, "r"), // grandchild: counts against a only
      Span(5, "d", 90, 120, 0, "r"),  // runs past the parent's end
    )
    val self = Trace.selfTimes(spans)
    assert(self(0) == 100 - (40 + 10 + 10))
    assert(self(1) == 20 - 8)
    assert(self(2) == 30)
    assert(self(4) == 8)
    assert(self(5) == 30)
  }

  test("the tracer nests spans, and records nothing when disabled") {
    val t = new Tracer("run")
    t.span("off")(())
    t.enabled = true
    t.span("outer")(t.span("inner", items = 4)(()))
    val spans = t.spans
    assert(spans.map(_.name) == Seq("outer", "inner"))
    assert(spans(1).parent == spans(0).id && spans(0).parent == -1 && spans(1).items == 4)
    assert(spans.forall(s => s.runId == "run" && s.endNs >= s.startNs))
  }

  test("BENCHMARK.json declares exactly the metrics the harness reports") {
    assert(declared("end_to_end") == Spec.EndToEnd)
    assert(declared("per_layer") == Spec.PerLayer)
  }

  for (w <- Seq("build", "query", "insert")) {
    test(s"$w: every end-to-end metric is reported, positive, with its unit") {
      val o = run(w, ctx(traced = false))
      assert(o.correct, o.failures)
      assert(o.endToEnd.map(m => m.name -> m.unit) == Spec.EndToEnd)
      o.endToEnd.foreach(m => assert(m.value > 0 && !m.value.isInfinite, m))
      assert(o.perLayer.isEmpty && o.spans.isEmpty)
    }

    test(s"$w: a traced run reports every per-layer metric with its unit") {
      val o = run(w, ctx(traced = true))
      assert(o.correct, o.failures)
      assert(o.perLayer.map(m => m.name -> m.unit) == Spec.PerLayer)
      o.perLayer.foreach(m => assert(!m.value.isNaN && !m.value.isInfinite, m))
      assert(o.perLayer.find(_.name == "failed_share").get.value == 0.0)
      assert(o.spans.nonEmpty)
    }
  }

  test("an injected wrong answer is counted and raises failed_share") {
    val q = run("query", ctx(traced = false, inject = true))
    assert(!q.correct && q.failed == 1)
    val i = run("insert", ctx(traced = true, inject = true))
    assert(!i.correct && i.failed == 1)
    assert(i.perLayer.find(_.name == "failed_share").get.value == 1.0 / i.attempted)
  }
}
