package repro.core

import repro.triangles.TriangleSet

/** The decremental peel of one level k over δ (§V-A's `decomph`), the one
  * kernel of [[DBA]] and of the verification step of §VI's Algorithm 2.
  *
  * A call — [[begin]], then [[addMember]] and [[addTriangle]], then [[run]]
  * — is given a level k, the member edges that may be peeled and their
  * triangles in descending mts order, and a floor. Every given triangle
  * starts valid, and every member must have at least k − 2 of them. The peel
  * then invalidates the triangles one equal-mts group at a time while
  * mts > floor, and after each group peels the members whose support fell
  * below k − 2, invalidating their still-valid triangles. A member peeled
  * after the group of mts δ leaves `T_{k,δ−1}`, so its k-span is δ
  * (Lemma 4); a survivor gets the floor. Edges of the given triangles that
  * are not members are fixed support: they are never peeled. The fixpoint
  * after each group, and with it every k-span, does not depend on the order
  * of the peel inside the group.
  *
  * Members and triangles are marked in primitive arrays stamped with the
  * call's epoch, so a call costs time in its triangles and its members'
  * incidence rows, not O(m) or O(|Δ|). A caller
  * collecting the members and triangles by search, like GAS, dedupes them
  * through the same marks.
  */
private[core] final class LevelPeel(ts: TriangleSet) {
  private var epoch = 0
  private var edgeMark = Array.emptyIntArray // == epoch: a member not yet peeled
  private var sup = Array.emptyIntArray      // a member's valid given triangles
  private var triMark = Array.emptyIntArray  // == epoch: a given triangle still valid
  private var members = new Array[Int](16)
  private var nMembers = 0
  private var tris = new Array[Int](16)
  private var nTris = 0

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

  /** The `i`-th member added in this call. */
  def member(i: Int): Int = members(i)

  /** Give triangle `tid` to the call; a no-op if it already was. */
  def addTriangle(tid: Int): Unit = if (triMark(tid) != epoch) {
    triMark(tid) = epoch
    tris = appended(tris, nTris, tid); nTris += 1
  }

  private def appended(buf: Array[Int], n: Int, x: Int): Array[Int] = {
    val out = if (n == buf.length) java.util.Arrays.copyOf(buf, 2 * n) else buf
    out(n) = x
    out
  }

  /** Put the given triangles in descending mts order, for a caller that did
    * not add them in it.
    */
  def sortTriangles(): Unit = {
    val keyed = new Array[Long](nTris)
    for (i <- 0 until nTris) keyed(i) = ts.mts(tris(i)).toLong << 32 | tris(i)
    java.util.Arrays.sort(keyed)
    for (i <- 0 until nTris) tris(i) = keyed(nTris - 1 - i).toInt
  }

  /** Peel level `k` down to `floor` over the given triangles, which must be
    * in descending mts order, and pass every member with its k-span to
    * `settle`. Ends the call: the marks are not read again until [[begin]].
    */
  def run(k: Int, floor: Int)(settle: (Int, Int) => Unit): Unit = {
    // each member is queued once, when a decrement first takes its support
    // below k − 2
    val queue = new Array[Int](nMembers)
    var top = 0
    def count(e: Int, by: Int): Unit = if (edgeMark(e) == epoch) {
      sup(e) += by
      if (by < 0 && sup(e) == k - 3) { queue(top) = e; top += 1 }
    }
    def countEdges(tid: Int, by: Int): Unit = { count(ts.e1(tid), by); count(ts.e2(tid), by); count(ts.e3(tid), by) }
    def kill(tid: Int): Unit = { triMark(tid) = 0; countEdges(tid, -1) }

    for (i <- 0 until nTris) countEdges(tris(i), 1)
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
      while (top > 0) {
        top -= 1
        val e = queue(top)
        edgeMark(e) = 0
        settle(e, d)
        val incident = ts.byEdge(e)
        var ti = 0
        while (ti < incident.length) {
          if (triMark(incident(ti)) == epoch) kill(incident(ti))
          ti += 1
        }
      }
    }
    for (i <- 0 until nMembers if edgeMark(members(i)) == epoch) settle(members(i), floor)
  }
}
