package repro.data

import org.apache.spark.sql.catalyst.plans.logical.LocalRelation
import org.apache.spark.sql.types.{DoubleType, LongType, StringType, StructField, StructType}
import repro.SparkSpec
import repro.core.{HTPGM, MiningConfig}
import repro.mi.MutualInfo

/** Generator characteristics of the synthetic dataset substitutes. */
class PatternedDataSpec extends SparkSpec {

  test("energy: deterministic in (shape, seed)") {
    val a = PatternedData.energy(spark, 4, 8, 24, seed = 1L).collect().toSet
    val b = PatternedData.energy(spark, 4, 8, 24, seed = 1L).collect().toSet
    val c = PatternedData.energy(spark, 4, 8, 24, seed = 2L).collect().toSet
    assert(a == b)
    assert(a != c)
  }

  test("energy: full grid of rows with binary values") {
    val df = PatternedData.energy(spark, nSeqs = 5, nVars = 8, slotsPerSeq = 24, seed = 3L)
    assert(df.count() == 5L * 8 * 24)
    val values = df.select("value").distinct().collect().map(_.getDouble(0)).toSet
    assert(values.subsetOf(Set(0.0, 1.0)))
    assert(df.select("series").distinct().count() == 8)
  }

  test("energy: cascade members are MI-correlated, noise appliances are not") {
    val df = PatternedData.energy(spark, nSeqs = 40, nVars = 8, slotsPerSeq = 32, seed = 4L)
    val symDb = SequenceBuilder.toSymbolicDB(Symbolizer.byThreshold(df))
    def s(n: String) = symDb.series(symDb.indexOf(n))
    // A00 (trigger) vs A01 (contained follower) share a cascade; A06/A07 are noise
    val inGroup = MutualInfo.pairScore(s("A00"), s("A01"))
    val noise = MutualInfo.pairScore(s("A00"), s("A07"))
    assert(inGroup > noise, s"inGroup=$inGroup noise=$noise")
    assert(inGroup > 0.10)
    assert(noise < 0.10)
  }

  test("energy: mining finds cascade patterns including the trigger relations") {
    val df = PatternedData.energy(spark, nSeqs = 30, nVars = 8, slotsPerSeq = 32, seed = 5L)
    val inst = SequenceBuilder.instances(Symbolizer.byThreshold(df), 32L, 0L)
    val db = SequenceBuilder.toLocal(inst)
    val res = HTPGM.mine(db, MiningConfig(sigma = 0.4, delta = 0.4, maxLevel = 3))
    assert(res.patterns.nonEmpty)
    val a0 = db.eventNames.indexOf("A00=On"); val a1 = db.eventNames.indexOf("A01=On")
    assert(res.patterns.keys.exists(p => p.events.contains(a0) && p.events.contains(a1)),
      "trigger and contained follower should form frequent patterns")
  }

  test("city: states stay within the alphabet ranges") {
    val df = PatternedData.city(spark, nSeqs = 5, nVars = 10, slotsPerSeq = 24, seed = 6L)
    val byPrefix = df.collect().groupBy(_.getString(0).take(1))
    assert(byPrefix("W").forall(r => r.getDouble(2) >= 0 && r.getDouble(2) <= 4))
    assert(byPrefix("V").forall(r => r.getDouble(2) >= 0 && r.getDouble(2) <= 3))
  }

  test("city: has weather, collision and (for larger nVars) noise series") {
    val df = PatternedData.city(spark, nSeqs = 2, nVars = 12, slotsPerSeq = 12, seed = 7L)
    val prefixes = df.select("series").distinct().collect().map(_.getString(0).take(1)).toSet
    assert(prefixes == Set("W", "V", "N"))
  }

  test("city: multi-state symbolization yields more distinct events than binary energy") {
    val city = PatternedData.city(spark, nSeqs = 20, nVars = 10, slotsPerSeq = 24, seed = 8L)
    val energy = PatternedData.energy(spark, nSeqs = 20, nVars = 10, slotsPerSeq = 24, seed = 8L)
    val cityEvents = SequenceBuilder.toLocal(SequenceBuilder.instances(
      Symbolizer.byStates(city, PatternedData.cityLabels(5)), 24L, 0L)).numEvents
    val energyEvents = SequenceBuilder.toLocal(SequenceBuilder.instances(
      Symbolizer.byThreshold(energy), 24L, 0L)).numEvents
    assert(cityEvents > energyEvents)
  }

  test("city: storms correlate core weather with collision severity") {
    val df = PatternedData.city(spark, nSeqs = 40, nVars = 8, slotsPerSeq = 32, seed = 9L)
    val symDb = SequenceBuilder.toSymbolicDB(
      Symbolizer.byStates(df, PatternedData.cityLabels(5)))
    def s(n: String) = symDb.series(symDb.indexOf(n))
    val coreVsCollision = MutualInfo.pairScore(s("W00"), s("V00"))
    assert(coreVsCollision > 0.05, s"score=$coreVsCollision")
  }

  test("generators' frames hold no LocalRelation and keep the raw schema") {
    val schema = StructType(Seq(
      StructField("series", StringType, nullable = true),
      StructField("t", LongType, nullable = false),
      StructField("value", DoubleType, nullable = false)))
    for (df <- Seq(PatternedData.energy(spark, 4, 8, 24, seed = 1L), PatternedData.city(spark, 4, 10, 24, seed = 1L))) {
      assert(df.schema == schema)
      for (q <- Seq(df, Symbolizer.byThreshold(df))) {
        val plan = q.queryExecution.optimizedPlan
        assert(plan.collectFirst { case r: LocalRelation => r }.isEmpty, plan.treeString)
      }
    }
  }

  test("generators validate their shape arguments") {
    assertThrows[IllegalArgumentException](PatternedData.energy(spark, 1, 2))
    assertThrows[IllegalArgumentException](PatternedData.city(spark, 1, 4))
  }

  test("generators' rows are pinned by an order-independent digest") {
    // Sum of the rows' hashes: fixes every (series, t, value) row and the
    // order of the random draws behind it, not the order of the rows.
    def digest(df: org.apache.spark.sql.DataFrame): (Long, Long) = {
      val rows = df.collect()
      (rows.length.toLong, rows.iterator.map(r => (r.getString(0), r.getLong(1), r.getDouble(2)).hashCode.toLong).sum)
    }
    assert(digest(PatternedData.energy(spark, 4, 8, 24, seed = 1L)) == ((768L, -28350409668L)))
    assert(digest(PatternedData.city(spark, 4, 10, 24, seed = 1L)) == ((960L, 53657263882L)))
  }
}
