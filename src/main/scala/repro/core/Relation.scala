package repro.core

/** The three simplified Allen relations of Section III.B, with the ε buffer
  * and minimal overlap duration d_o.
  *
  * For two event instances `a` and `b` with `a` chronologically before `b`
  * (order on (start, end, event)), exactly one of the following holds under
  * the default configuration (ε = 0, d_o = 1, integer timestamps):
  *
  *  - Contain: `b.end <= a.end + ε`                        (Def 3.7)
  *  - Overlap: not Contain and `a.end - b.start >= d_o`    (Def 3.8)
  *  - Follow:  not Contain/Overlap and `a.end - b.start <= ε` (Def 3.6)
  *
  * For non-default ε/d_o a gap may exist (overlap amount strictly between
  * ε and d_o); such instance pairs form no relation and cannot appear in a
  * pattern (see DESIGN.md §3).
  */
object Relation {
  val Follow: Byte  = 0
  val Contain: Byte = 1
  val Overlap: Byte = 2
  /** Sentinel: the pair forms no relation (only possible when d_o > ε + 1). */
  val None: Byte = -1

  /** Compact infix glyphs used when pretty-printing patterns (→, ≽, ≬). */
  def glyph(r: Byte): String = r match {
    case Follow  => "->"
    case Contain => ">="
    case Overlap => "><"
    case _       => "!?"
  }

  /** Classify the relation between instance intervals (s1,e1) and (s2,e2),
    * where (s1,e1) is chronologically first. Returns [[None]] when no
    * relation holds (gap case).
    */
  def classify(s1: Long, e1: Long, s2: Long, e2: Long, eps: Long, dO: Long): Byte = {
    require(s1 <= s2, s"classify requires chronological order: $s1 > $s2")
    relate(e1, s2, e2, eps, dO)
  }

  /** [[classify]] without its order check (the first start does not enter
    * the relation), for [[extend]], whose "after the last instance" test
    * already guarantees the order.
    */
  private def relate(e1: Long, s2: Long, e2: Long, eps: Long, dO: Long): Byte =
    if (e2 <= e1 + eps) Contain
    else if (e1 - s2 >= dO) Overlap
    else if (e1 - s2 <= eps) Follow
    else None

  /** The occurrence-extension kernel shared by every miner: can instance `x`
    * of the sequence `s` extend the occurrence `occ(off until off + k)`, k
    * instance indices into `s` in chronological order? `x` must come after
    * the occurrence's last instance in [[Instance.chrono]] order, the
    * extended occurrence must span at most `t_max`, and every pair must form
    * a relation. If so, it writes `rels(i) = r(occ(off + i), x)` for `i < k`
    * and returns true.
    */
  def extend(s: EventSlices, occ: Array[Int], off: Int, k: Int, x: Int,
             cfg: MiningConfig, rels: Array[Byte]): Boolean = {
    val last = occ(off + k - 1)
    val start = s.start(x); val end = s.end(x)
    val after = start > s.start(last) || (start == s.start(last) &&
      (end > s.end(last) || (end == s.end(last) && s.event(x) > s.event(last))))
    if (!after || end - s.start(occ(off)) > cfg.tMax) return false
    var i = 0
    while (i < k) {
      val j = occ(off + i)
      val r = relate(s.end(j), start, end, cfg.eps, cfg.dO)
      if (r == None) return false
      rels(i) = r
      i += 1
    }
    true
  }
}
