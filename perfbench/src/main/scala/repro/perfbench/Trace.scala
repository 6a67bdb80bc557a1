package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** One closed span: a call into a layer's public function, or a batch of
  * `items` calls too short to time one by one. `parent` is the id of the
  * enclosing span (-1 at top level); all spans of one benchmark run share
  * `runId`.
  */
final case class Span(id: Int, name: String, startNs: Long, endNs: Long, parent: Int, runId: String,
                      items: Int = 1) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder. When `enabled` is false `span` is a plain call,
  * so untraced runs pay one branch per layer call and nothing else.
  * Single-threaded: the benchmark is a closed loop with one client.
  */
final class Tracer(val runId: String) {
  private val done = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  var enabled: Boolean = false

  def span[A](name: String, items: Int = 1)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = if (open.isEmpty) -1 else open.head
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open = open.tail
        done += Span(id, name, t0, t1, parent, runId, items)
      }
    }

  /** Run `body` with tracing switched to `on`, restoring the previous state. */
  def withTracing[A](on: Boolean)(body: => A): A = {
    val prev = enabled
    enabled = on
    try body finally enabled = prev
  }

  def spans: Seq[Span] = done.toSeq.sortBy(_.id)
}

object Trace {

  /** Self time of every span: its duration minus the part of its interval
    * covered by its direct children (overlapping children counted once).
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.filter(_.parent >= 0).groupBy(_.parent)
    spans.iterator.map { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue; var curB = Long.MinValue
      for ((a, b) <- kids) {
        if (a > curB) { if (curB > curA) covered += curB - curA; curA = a; curB = b }
        else if (b > curB) curB = b
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.durNs - covered)
    }.toMap
  }

  /** Spans as JSON lines, one object per span, for offline inspection. */
  def jsonLines(spans: Seq[Span]): Iterator[String] = {
    val self = selfTimes(spans)
    spans.iterator.map { s =>
      Json.obj(Seq(
        "run" -> Json.str(s.runId), "id" -> s.id.toString, "parent" -> s.parent.toString,
        "name" -> Json.str(s.name), "start_ns" -> s.startNs.toString,
        "end_ns" -> s.endNs.toString, "self_ns" -> self(s.id).toString,
        "items" -> s.items.toString,
      ))
    }
  }
}
