package repro.bench

import repro.{SparkSpec, SynthData}
import repro.core.Locat
import repro.sparkexec.{LiteQueries, SparkObjective}

/** End-to-end LOCAT against the *live* Spark session: tunes the runtime-
  * settable spark.sql.* parameters over Oracle-verified workloads, observing
  * real wall-clock and JVM GC metrics. Small budgets — every trial executes
  * real queries on this machine.
  */
class RealSparkTuneBench extends SparkSpec {

  private val sf = 0.004
  private val queries = LiteQueries.tpch.filter(q => Set("Q1", "Q3", "Q5", "Q6", "Q12", "Q13")(q.id)) ++
    Seq(LiteQueries.hibenchAggregation)

  test("real-Spark LOCAT run: tunes spark.sql.* online and does not regress the defaults") {
    val tables = SynthData.tables(spark, sf, queries.flatMap(_.tables))
    val objective = new SparkObjective(spark, queries, tables, name = "tpch-lite-real")
    val space = SparkObjective.runtimeSpace

    // measure the default configuration (median of 3 to damp warmup noise)
    def measure(conf: repro.core.ConfigValues): Double = {
      val ts = (1 to 3).map(_ => objective.run(conf, sf).totalSeconds)
      ts.sorted.apply(1)
    }
    measure(space.defaults) // JIT/cache warmup, discarded
    val defaultTime = measure(space.defaults)

    val result = new Locat(nQcsa = 10, nIicp = 8, minIter = 3, maxIter = 6)
      .tune(objective, space, datasizeGB = sf, seed = Bench.Seed)
    val tunedTime = measure(result.bestConf)

    println("== Real-Spark LOCAT (TPC-H-lite subset + HiBench AGG) ==")
    println(f"default conf: $defaultTime%.2f s   LOCAT-tuned: $tunedTime%.2f s " +
      f"(${defaultTime / tunedTime}%.2fx)   optimization cost: ${result.optimizationSeconds}%.1f s, " +
      s"${result.trials.size} trials")
    println("best conf: " + result.bestConf.values.toSeq.sortBy(_._1)
      .map { case (k, v) => f"${k.stripPrefix("spark.sql.")}=${v}%.0f" }.mkString(" "))
    if (objective.skippedKeys.nonEmpty)
      println(s"keys not settable in this Spark: ${objective.skippedKeys.mkString(", ")}")

    // sanity: all tuned keys were actually settable, and tuning did not
    // regress the default configuration beyond measurement noise
    assert((SparkObjective.runtimeSpace.names.toSet intersect objective.skippedKeys).isEmpty)
    assert(tunedTime <= defaultTime * 1.25,
      f"tuned $tunedTime%.2fs much slower than default $defaultTime%.2fs")

    // restore shared-session settings for any later suites
    objective.applyConf(space.defaults)
    spark.conf.set("spark.sql.autoBroadcastJoinThreshold", -1)
  }
}
