package repro.sparkexec

import org.scalatest.{BeforeAndAfterAll, BeforeAndAfterEach}
import repro.{SparkSpec, SynthData}
import repro.core.{ConfigSpace, ConfigValues}

class SparkObjectiveSpec extends SparkSpec with BeforeAndAfterEach with BeforeAndAfterAll {

  private val sf = 0.002
  // a fast 5-query subset so each objective run stays ~seconds
  private val fastQueries = LiteQueries.tpch.filter(q => Set("Q1", "Q6", "Q12")(q.id)) ++
    Seq(LiteQueries.hibenchScan, LiteQueries.hibenchAggregation)

  private lazy val objective =
    new SparkObjective(spark, fastQueries, SynthData.tables(spark, sf, fastQueries.flatMap(_.tables)))

  /** Every test may apply a configuration: put back the shared session's
    * settings and unset the other runtime keys.
    */
  override def afterEach(): Unit =
    try SparkObjective.runtimeSpace.names.foreach { k =>
      SparkSpec.Settings.get(k).fold(spark.conf.unset(k))(spark.conf.set(k, _))
    } finally super.afterEach()

  override def afterAll(): Unit =
    try SparkSpec.Settings.foreach { case (k, v) => assert(spark.conf.get(k) == v, s"$k left changed for the next suite") }
    finally super.afterAll()

  test("run() times every query of the workload") {
    val res = objective.run(SparkObjective.runtimeSpace.defaults, sf)
    assert(res.perQuerySeconds.keySet == fastQueries.map(_.id).toSet)
    assert(res.perQuerySeconds.values.forall(_ > 0))
    assert(res.totalSeconds > 0)
  }

  test("subset runs only the requested queries (the RQA path)") {
    val res = objective.run(SparkObjective.runtimeSpace.defaults, sf, Some(Seq("Q6", "SCAN")))
    assert(res.perQuerySeconds.keySet == Set("Q6", "SCAN"))
  }

  test("a subset naming a query outside the workload throws before the configuration is applied") {
    val before = spark.conf.get("spark.sql.shuffle.partitions")
    val conf = SparkObjective.runtimeSpace.defaults.updated("spark.sql.shuffle.partitions", 23)
    Seq(Seq("Q99"), Seq("Q6", "Q99")).foreach { ids =>
      val e = intercept[NoSuchElementException](objective.run(conf, sf, Some(ids)))
      assert(e.getMessage == "no query Q99 in real-spark", ids)
      assert(spark.conf.get("spark.sql.shuffle.partitions") == before, ids)
    }
  }

  test("applyConf actually changes the live session configuration") {
    val conf = SparkObjective.runtimeSpace.defaults
      .updated("spark.sql.shuffle.partitions", 17)
      .updated("spark.sql.autoBroadcastJoinThreshold", 2048) // KB
      .updated("spark.sql.join.preferSortMergeJoin", 0.0)
    objective.applyConf(conf)
    assert(spark.conf.get("spark.sql.shuffle.partitions") == "17")
    assert(spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == (2048 * 1024).toString)
    assert(spark.conf.get("spark.sql.join.preferSortMergeJoin") == "false")
  }

  /** How each runtime key's Table 2 value rendered into a conf string when the
    * objective kept its own key-to-renderer map.
    */
  private val keyedRenderers: Map[String, Double => String] = {
    def boolS(v: Double): String = if (v >= 0.5) "true" else "false"
    def intS(v: Double): String = math.max(1, math.round(v)).toString
    Map(
      "spark.sql.shuffle.partitions" -> intS,
      "spark.sql.autoBroadcastJoinThreshold" -> (v => (math.round(v) * 1024L).toString),
      "spark.sql.inMemoryColumnarStorage.batchSize" -> intS,
      "spark.sql.inMemoryColumnarStorage.compressed" -> boolS,
      "spark.sql.codegen.maxFields" -> intS,
      "spark.sql.join.preferSortMergeJoin" -> boolS,
      "spark.sql.sort.enableRadixSort" -> boolS,
    )
  }

  test("each runtime-space key renders as the key-to-renderer map did, at both range ends and the default") {
    val space = SparkObjective.runtimeSpace
    assert(space.names.toSet == keyedRenderers.keySet)
    space.params.foreach { p =>
      val (lo, hi) = space.range(p)
      Seq(lo, hi, p.default).foreach { v =>
        objective.applyConf(ConfigValues(Map(p.name -> v)))
        assert(spark.conf.get(p.name) == keyedRenderers(p.name)(v), s"${p.name} = $v")
      }
    }
    assert((space.names.toSet intersect objective.skippedKeys).isEmpty)
  }

  test("every runtime-space parameter is settable on this Spark version") {
    objective.applyConf(SparkObjective.runtimeSpace.defaults)
    val notSettable = SparkObjective.runtimeSpace.names.toSet intersect objective.skippedKeys
    assert(notSettable.isEmpty, s"not settable in this Spark: $notSettable")
  }

  test("keys outside the runtime-settable set are recorded in skippedKeys") {
    objective.applyConf(ConfigSpace.full(arm = true).defaults)
    assert(objective.skippedKeys.contains("spark.executor.memory"))
    assert((SparkObjective.runtimeSpace.names.toSet intersect objective.skippedKeys).isEmpty)
  }

  test("GC metrics are observed (listener wired)") {
    // several runs to give the JVM a chance to GC; assert non-negative, finite
    val res = objective.run(SparkObjective.runtimeSpace.defaults, sf)
    assert(res.gcSeconds >= 0.0 && res.gcSeconds.isFinite)
  }

  test("unknown conf keys are skipped, not fatal") {
    val weird = ConfigValues(Map("spark.sql.shuffle.partitions" -> 8.0, "zz.unknown" -> 1.0))
    objective.applyConf(weird) // must not throw: unknown key simply isn't in `runtimeSpace`
    assert(spark.conf.get("spark.sql.shuffle.partitions") == "8")
  }
}
