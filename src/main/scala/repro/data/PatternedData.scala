package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random

/** Synthetic substitutes for the paper's evaluation datasets (DESIGN.md §4).
  *
  * `energy(...)` mimics NIST/UKDALE/DataPort: binary appliance series where
  * 75% of the variables form cascade groups of four — a *trigger* appliance
  * whose activation is accompanied by a *contained*, an *overlapping* and a
  * *following* activation of its group members — plus independent noise
  * appliances. `city(...)` mimics the NYC weather+collision data: 5-state
  * weather variables with storm episodes that drive 4-state collision
  * severity variables, plus noise walks.
  *
  * Both emit the repo-wide raw layout `(series, t, value)` over a timeline
  * of `nSeqs · slotsPerSeq` slots, so splitting with `seqLen = slotsPerSeq`
  * and `tOv = 0` recovers the generation blocks as sequences. Deterministic
  * in (shape, seed).
  */
object PatternedData {

  val SlotsPerSeq = 48

  /** Marks an interval [from, until) of `row` true, clipped to the block. */
  private def mark(row: Array[Boolean], from: Int, until: Int): Unit = {
    var i = math.max(0, from)
    while (i < math.min(row.length, until)) { row(i) = true; i += 1 }
  }

  /** The raw frame of `nSeqs` blocks of `slotsPerSeq` slots: `block(seq)`
    * draws block `seq` as its series' names and values, one per slot.
    *
    * The driver draws every block strictly and in order before any task
    * runs, so one seed gives one frame whatever the task schedule. It ships
    * the compact `(seq, series, values)` blocks, and tasks expand them into
    * the `(series, t, value)` rows. No `LocalRelation` holds the rows in the
    * plan: Catalyst would otherwise walk all of them in every rule of every
    * query over the frame (DESIGN.md §4).
    */
  private def frame(spark: SparkSession, nSeqs: Int, slotsPerSeq: Int)
                   (block: Int => Seq[(String, Array[Double])]): DataFrame = {
    import spark.implicits._
    val blocks = for (seq <- 0 until nSeqs; (series, values) <- block(seq)) yield (seq, series, values)
    spark.sparkContext.parallelize(blocks)
      .flatMap { case (seq, series, values) =>
        Iterator.tabulate(slotsPerSeq)(s => (series, seq.toLong * slotsPerSeq + s, values(s)))
      }
      .toDF("series", "t", "value")
  }

  /** Binary appliance dataset. Variables `A00..A(n-1)`; the first
    * `4 * floor(0.75 n / 4)` form cascade groups, the rest are noise.
    */
  def energy(spark: SparkSession, nSeqs: Int, nVars: Int,
             slotsPerSeq: Int = SlotsPerSeq, seed: Long = 42L): DataFrame = {
    require(nVars >= 4, "need at least one cascade group")
    val rng = new Random(seed)
    val nGroups = math.max(1, (nVars * 3 / 4) / 4)
    frame(spark, nSeqs, slotsPerSeq) { _ =>
      val grid = Array.fill(nVars, slotsPerSeq)(false)
      for (g <- 0 until nGroups) {
        val base = g * 4
        if (rng.nextDouble() < 0.95) {
          val sTrig = 2 + rng.nextInt(slotsPerSeq / 2)
          val dTrig = 6 + rng.nextInt(4)
          mark(grid(base), sTrig, sTrig + dTrig) // trigger
          if (rng.nextDouble() < 0.95) // contained follower
            mark(grid(base + 1), sTrig + 1, sTrig + dTrig - 1 - rng.nextInt(2))
          if (rng.nextDouble() < 0.90) // overlapping follower
            mark(grid(base + 2), sTrig + dTrig - 2, sTrig + dTrig + 2 + rng.nextInt(3))
          if (rng.nextDouble() < 0.80) // following follower
            mark(grid(base + 3), sTrig + dTrig + 1 + rng.nextInt(2),
                 sTrig + dTrig + 3 + rng.nextInt(3))
          if (rng.nextDouble() < 0.60) // synchronous co-use blip: keeps the
            // follower's slot-wise MI with its group high (real appliances
            // are also used *during* the trigger window, not only after)
            mark(grid(base + 3), sTrig + 2 + rng.nextInt(math.max(1, dTrig - 3)),
                 sTrig + 4 + rng.nextInt(math.max(1, dTrig - 3)))
        }
        // sporadic unrelated activations keep confidences below 1
        for (v <- base until base + 4 if rng.nextDouble() < 0.25)
          mark(grid(v), rng.nextInt(slotsPerSeq), rng.nextInt(slotsPerSeq) + 2)
      }
      for (v <- nGroups * 4 until nVars; _ <- 0 until (1 + rng.nextInt(3)))
        mark(grid(v), rng.nextInt(slotsPerSeq), rng.nextInt(slotsPerSeq) + 1 + rng.nextInt(3))

      (0 until nVars).map(v => f"A$v%02d" -> grid(v).map(if (_) 1.0 else 0.0))
    }
  }

  /** State labels for the city variables (5 weather states / 4 severities). */
  def cityLabels(n: Int): Seq[String] = (0 until n).map(i => s"S$i")

  /** Multi-state weather+collision dataset. Variables:
    * `W00..` weather (5 states; first four are the storm-driven core),
    * `V00..` collision severity (4 states; driven by storms),
    * `N00..` noise walks (5 states). `nVars` is split 5/12 core+noise
    * weather, 1/4 collision, remainder noise.
    */
  def city(spark: SparkSession, nSeqs: Int, nVars: Int,
           slotsPerSeq: Int = SlotsPerSeq, seed: Long = 43L): DataFrame = {
    require(nVars >= 8, "need core weather + collision variables")
    val rng = new Random(seed)
    val nWeather = math.max(4, nVars * 5 / 12)
    val nCollision = math.max(2, nVars / 4)
    val nNoise = nVars - nWeather - nCollision

    // Sticky random walk (stays put w.p. 0.75): keeps the instance count
    // per sequence near the paper's ~155 rather than toggling every slot.
    def walk(states: Int, len: Int, lo: Int, hi: Int): Array[Int] = {
      val out = new Array[Int](len)
      var cur = lo + rng.nextInt(hi - lo + 1)
      for (i <- 0 until len) {
        val step = rng.nextDouble() match {
          case d if d < 0.125 => -1
          case d if d < 0.25  => 1
          case _              => 0
        }
        cur = math.min(hi, math.max(lo, cur + step))
        out(i) = math.min(states - 1, cur)
      }
      out
    }

    frame(spark, nSeqs, slotsPerSeq) { _ =>
      val storm = rng.nextDouble() < 0.40
      val sStorm = if (storm) 4 + rng.nextInt(slotsPerSeq / 2) else -1
      val dStorm = if (storm) 8 + rng.nextInt(6) else 0

      val weather = Array.tabulate(nWeather)(_ => walk(5, slotsPerSeq, 0, 2))
      if (storm)
        for (w <- 0 until math.min(4, nWeather); i <- sStorm until math.min(slotsPerSeq, sStorm + dStorm))
          weather(w)(i) = if (w < 2) 4 else 3 + rng.nextInt(2) // wind/rain extreme, vis/cloud high

      val collision = Array.tabulate(nCollision)(_ => walk(4, slotsPerSeq, 0, 1))
      if (storm && rng.nextDouble() < 0.85) {
        val dHigh = 4 + rng.nextInt(3)
        for (c <- 0 until nCollision; i <- (sStorm + 3) until math.min(slotsPerSeq, sStorm + 3 + dHigh))
          collision(c)(i) = 3
      }

      val noise = Array.tabulate(math.max(0, nNoise))(_ => walk(5, slotsPerSeq, 0, 4))

      def named(prefix: String, states: Array[Array[Int]]) =
        states.indices.map(i => f"$prefix$i%02d" -> states(i).map(_.toDouble))
      named("W", weather) ++ named("V", collision) ++ named("N", noise)
    }
  }
}
