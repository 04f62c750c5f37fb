package repro.sparkexec

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, SynthData}
import repro.core.{ConfigSpace, ConfigValues}

class SparkObjectiveSpec extends SparkSpec {

  private val sf = 0.002
  // a fast 5-query subset so each objective run stays ~seconds
  private val fastQueries = LiteQueries.tpch.filter(q => Set("Q1", "Q6", "Q12")(q.id)) ++
    Seq(LiteQueries.hibenchScan, LiteQueries.hibenchAggregation)

  private lazy val tables: Map[String, DataFrame] = {
    val t = Map(
      "lineitem" -> SynthData.lineitem(spark, sf),
      "orders" -> SynthData.orders(spark, sf),
      "customer" -> SynthData.customer(spark, sf),
      "part" -> SynthData.part(spark, sf),
      "rankings" -> SynthData.rankings(spark, sf),
      "uservisits" -> SynthData.uservisits(spark, sf),
    ).map { case (k, v) => k -> v.cache() }
    t.values.foreach(_.count())
    t
  }

  private lazy val objective = new SparkObjective(spark, fastQueries, tables)

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

  test("applyConf actually changes the live session configuration") {
    val conf = SparkObjective.runtimeSpace.defaults
      .updated("spark.sql.shuffle.partitions", 17)
      .updated("spark.sql.autoBroadcastJoinThreshold", 2048) // KB
      .updated("spark.sql.join.preferSortMergeJoin", 0.0)
    objective.applyConf(conf)
    assert(spark.conf.get("spark.sql.shuffle.partitions") == "17")
    assert(spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == (2048 * 1024).toString)
    assert(spark.conf.get("spark.sql.join.preferSortMergeJoin") == "false")
    // restore the shared session's settings for other suites
    objective.applyConf(SparkObjective.runtimeSpace.defaults)
    spark.conf.set("spark.sql.autoBroadcastJoinThreshold", -1)
  }

  test("every runtime-space parameter is settable on this Spark version") {
    objective.applyConf(SparkObjective.runtimeSpace.defaults)
    val notSettable = SparkObjective.runtimeSpace.names.toSet intersect objective.skippedKeys
    assert(notSettable.isEmpty, s"not settable in this Spark: $notSettable")
    spark.conf.set("spark.sql.autoBroadcastJoinThreshold", -1)
  }

  test("keys outside the runtime-settable set are recorded in skippedKeys") {
    objective.applyConf(ConfigSpace.full(arm = true).defaults)
    assert(objective.skippedKeys.contains("spark.executor.memory"))
    assert((SparkObjective.runtimeSpace.names.toSet intersect objective.skippedKeys).isEmpty)
    // restore the shared session's settings for other suites
    objective.applyConf(SparkObjective.runtimeSpace.defaults)
    spark.conf.set("spark.sql.autoBroadcastJoinThreshold", -1)
  }

  test("GC metrics are observed (listener wired)") {
    // several runs to give the JVM a chance to GC; assert non-negative, finite
    val res = objective.run(SparkObjective.runtimeSpace.defaults, sf)
    assert(res.gcSeconds >= 0.0 && res.gcSeconds.isFinite)
  }

  test("unknown conf keys are skipped, not fatal") {
    val weird = ConfigValues(Map("spark.sql.shuffle.partitions" -> 8.0, "zz.unknown" -> 1.0))
    objective.applyConf(weird) // must not throw: unknown key simply isn't in `settable`
    assert(spark.conf.get("spark.sql.shuffle.partitions") == "8")
    spark.conf.set("spark.sql.shuffle.partitions", SparkSpec.ShufflePartitions.toLong)
  }
}
