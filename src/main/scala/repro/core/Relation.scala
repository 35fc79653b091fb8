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
    if (e2 <= e1 + eps) Contain
    else if (e1 - s2 >= dO) Overlap
    else if (e1 - s2 <= eps) Follow
    else None
  }

  /** The occurrence-extension kernel shared by every miner: can the
    * candidate instance `(event, [start, end])` extend the chronologically
    * sorted occurrence `occ`? It must come after `occ`'s last instance in
    * [[Instance.chrono]] order, the extended occurrence must span at most
    * `t_max`, and every pair must form a relation. Returns
    * `rels(i) = r(occ(i), candidate)`, or `null` when the candidate does not
    * extend `occ`.
    */
  def extend(occ: Array[Instance], event: Int, start: Long, end: Long,
             cfg: MiningConfig): Array[Byte] = {
    val last = occ(occ.length - 1)
    val after = start > last.start ||
      (start == last.start && (end > last.end || (end == last.end && event > last.event)))
    if (!after || end - occ(0).start > cfg.tMax) return null
    val rels = new Array[Byte](occ.length)
    var i = 0
    while (i < occ.length) {
      val r = classify(occ(i).start, occ(i).end, start, end, cfg.eps, cfg.dO)
      if (r == None) return null
      rels(i) = r
      i += 1
    }
    rels
  }
}
