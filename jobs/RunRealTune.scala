package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.core.Locat
import repro.sparkexec.{LiteQueries, SparkObjective}

/** spark-submit entrypoint: LOCAT end-to-end against the *real* local Spark
  * session — tunes the runtime-settable spark.sql.* parameters on the
  * TPC-H-lite + HiBench workloads at a small scale factor.
  *
  * Usage: RunRealTune [sf] [seed]
  */
object RunRealTune {
  def main(args: Array[String]): Unit = {
    val sf = args.lift(0).map(_.toDouble).getOrElse(0.01)
    val seed = args.lift(1).map(_.toLong).getOrElse(42L)

    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("locat-real-tune")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

    val tables = SynthData.tables(spark, sf, LiteQueries.all.flatMap(_.tables))
    val objective = new SparkObjective(spark, LiteQueries.all, tables)
    // small budgets: each trial really executes 25 queries on this machine
    val result = new Locat(nQcsa = 12, nIicp = 10, minIter = 4, maxIter = 8)
      .tune(objective, SparkObjective.runtimeSpace, sf * 1.0, seed)

    println(f"best total time: ${result.bestTimeSeconds}%.2f s over ${LiteQueries.all.size} queries")
    println(f"optimization cost: ${result.optimizationSeconds}%.1f s across ${result.trials.size} trials")
    result.bestConf.values.toSeq.sortBy(_._1).foreach { case (k, v) => println(f"  $k = $v%.1f") }
    if (objective.skippedKeys.nonEmpty)
      println(s"skipped (not settable in this Spark): ${objective.skippedKeys.mkString(", ")}")
    spark.stop()
  }
}
