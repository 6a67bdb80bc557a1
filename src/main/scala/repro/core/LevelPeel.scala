package repro.core

import repro.triangles.TriangleSet

/** The support peel of one level k, the one kernel of [[DBA]], of the
  * verification step of §VI's Algorithm 2, of [[repro.truss.TrussInsert]]
  * and of [[OnlineQuery]], and the one region search of §VI, [[grow]],
  * which collects GAS's region and TrussInsert's candidates.
  *
  * A call — [[begin]], then [[addMember]], [[addTriangle]] and [[grow]],
  * then [[run]] or [[fixpoint]] — is given a level k, the member edges that
  * may be peeled and their triangles. Every given triangle starts valid.
  * Edges of the given triangles that are not members are fixed support:
  * they are never peeled.
  *
  *  - [[run]] is §V-A's decremental peel over δ (`decomph`). The triangles
  *    come in descending mts order, every member must have at least k − 2
  *    of them, and a floor is given. The peel invalidates the triangles one
  *    equal-mts group at a time while mts > floor, and after each group
  *    peels the members whose support fell below k − 2, invalidating their
  *    still-valid triangles. A member peeled after the group of mts δ
  *    leaves `T_{k,δ−1}`, so its k-span is δ (Lemma 4); a survivor gets the
  *    floor. The fixpoint after each group, and with it every k-span, does
  *    not depend on the order of the peel inside the group.
  *  - [[fixpoint]] is the same peel without the sweep: members may start
  *    below k − 2, and it peels them until every survivor has k − 2 valid
  *    triangles, the support fixpoint of Huang et al.'s truss maintenance.
  *
  * Members and triangles are marked in primitive arrays stamped with the
  * call's epoch, so a call costs time in its triangles and its members'
  * incidence rows, not O(m) or O(|Δ|). [[grow]] reads the same marks, so
  * it tests no triangle the call already holds.
  */
private[repro] final class LevelPeel(ts: TriangleSet) {
  private var epoch = 0
  private var edgeMark = Array.emptyIntArray // == epoch: a member not yet peeled
  private var sup = Array.emptyIntArray      // a member's valid given triangles
  private var triMark = Array.emptyIntArray  // == epoch: a given triangle still valid
  private var members = new Array[Int](16)
  private var nMembers = 0
  private var tris = new Array[Int](16)
  private var nTris = 0
  // the members to peel, each queued once: when its support first falls
  // below k − 2
  private var queue = Array.emptyIntArray
  private var top = 0
  private var level = 0 // the k of the running call

  /** Start a new call, with no members and no triangles. */
  def begin(): Unit = {
    // fresh marks once the store has outgrown them or the epochs run out
    if (edgeMark.length < ts.m || triMark.length < ts.size || epoch == Int.MaxValue) {
      edgeMark = new Array[Int](ts.m + ts.m / 8)
      sup = new Array[Int](edgeMark.length)
      triMark = new Array[Int](ts.size + ts.size / 8)
      epoch = 0
    }
    epoch += 1
    nMembers = 0
    nTris = 0
  }

  /** Make `e` a member; a no-op if it already is one. */
  def addMember(e: Int): Unit = if (edgeMark(e) != epoch) {
    edgeMark(e) = epoch
    sup(e) = 0
    members = appended(members, nMembers, e); nMembers += 1
  }

  def memberCount: Int = nMembers

  /** Give triangle `tid` to the call; a no-op if it already was. */
  def addTriangle(tid: Int): Unit = if (triMark(tid) != epoch) {
    triMark(tid) = epoch
    tris = appended(tris, nTris, tid); nTris += 1
  }

  def triangleCount: Int = nTris

  /** Grow the call breadth-first. Walk the members in the order they were
    * added, those from before this call first, then those it adds. Each
    * triangle of a member's incidence row that the call does not hold yet
    * and that `admits` is given to the call, and each of its edges that
    * `joins` becomes a member. The two predicates must not change during
    * the call: a triangle the call holds is not tested again, and `joins`
    * is not asked about a member.
    */
  def grow(admits: Int => Boolean)(joins: Int => Boolean): Unit = {
    @inline def reach(e: Int): Unit = if (edgeMark(e) != epoch && joins(e)) addMember(e)
    var next = 0
    while (next < nMembers) {
      val incident = ts.byEdge(members(next))
      next += 1
      var ti = 0
      while (ti < incident.length) {
        val tid = incident(ti)
        if (triMark(tid) != epoch && admits(tid)) {
          addTriangle(tid)
          reach(ts.e1(tid)); reach(ts.e2(tid)); reach(ts.e3(tid))
        }
        ti += 1
      }
    }
  }

  private def appended(buf: Array[Int], n: Int, x: Int): Array[Int] = {
    val out = if (n == buf.length) java.util.Arrays.copyOf(buf, 2 * n) else buf
    out(n) = x
    out
  }

  /** Put the given triangles in descending mts order, for a caller that did
    * not add them in it, by [[TriangleSet.descending]]; ties keep the order
    * they were added in, which the peel does not depend on (see [[run]]).
    */
  def sortTriangles(): Unit = {
    val key = new Array[Int](nTris)
    var i = 0
    while (i < nTris) { key(i) = ts.mts(tris(i)); i += 1 }
    val order = TriangleSet.descending(key)
    val was = java.util.Arrays.copyOf(tris, nTris)
    i = 0
    while (i < nTris) { tris(i) = was(order(i)); i += 1 }
  }

  /** Peel level `k` down to `floor` over the given triangles, which must be
    * in descending mts order, and pass every member with its k-span to
    * `settle`. Ends the call: the marks are not read again until [[begin]].
    */
  def run(k: Int, floor: Int)(settle: (Int, Int) => Unit): Unit = {
    countSupport(k)
    // every member belongs to T_{k,δ} at the top of the sweep, so its
    // support there must already meet the threshold; a violation means the
    // caller lost a supporting triangle
    for (i <- 0 until nMembers)
      assert(sup(members(i)) >= k - 2, s"member ${members(i)} undersupported at the top of level $k: ${sup(members(i))}")

    var i = 0
    while (i < nTris && ts.mts(tris(i)) > floor) {
      val d = ts.mts(tris(i))
      while (i < nTris && ts.mts(tris(i)) == d) {
        if (triMark(tris(i)) == epoch) kill(tris(i))
        i += 1
      }
      drain(settle(_, d))
    }
    for (i <- 0 until nMembers if edgeMark(members(i)) == epoch) settle(members(i), floor)
  }

  /** Peel the members of level `k` until each survivor has at least k − 2
    * valid given triangles, and pass every survivor to `keep`. Ends the
    * call, as [[run]] does.
    */
  def fixpoint(k: Int)(keep: Int => Unit): Unit = {
    countSupport(k)
    for (i <- 0 until nMembers if sup(members(i)) < k - 2) { queue(top) = members(i); top += 1 }
    drain(_ => ())
    for (i <- 0 until nMembers if edgeMark(members(i)) == epoch) keep(members(i))
  }

  private def countSupport(k: Int): Unit = {
    level = k
    queue = new Array[Int](nMembers)
    top = 0
    for (i <- 0 until nTris) countEdges(tris(i), 1)
  }

  private def count(e: Int, by: Int): Unit = if (edgeMark(e) == epoch) {
    sup(e) += by
    if (by < 0 && sup(e) == level - 3) { queue(top) = e; top += 1 }
  }

  private def countEdges(tid: Int, by: Int): Unit = { count(ts.e1(tid), by); count(ts.e2(tid), by); count(ts.e3(tid), by) }

  private def kill(tid: Int): Unit = { triMark(tid) = 0; countEdges(tid, -1) }

  /** Peel the queued members, and those their peel queues, passing each to
    * `peeled`.
    */
  private def drain(peeled: Int => Unit): Unit = while (top > 0) {
    top -= 1
    val e = queue(top)
    edgeMark(e) = 0
    peeled(e)
    val incident = ts.byEdge(e)
    var ti = 0
    while (ti < incident.length) {
      if (triMark(incident(ti)) == epoch) kill(incident(ti))
      ti += 1
    }
  }
}
