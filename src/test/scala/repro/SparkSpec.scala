package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for the suites that run Spark: one local-mode SparkSession for the
  * whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (48g when unset). Broadcast joins are disabled so the
  * lite queries' joins exercise the shuffle path on the SF 0.002–0.003 test
  * tables; a suite that changes a setting restores `SparkSpec.Settings`.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  /** Shuffle partitions for the test tables, at most 18 000 rows each
    * (lineitem at SF 0.003): one partition per core of a 4-core machine.
    */
  val ShufflePartitions: Int = 4

  /** The SQL settings `shared` starts with, as `spark.conf.get` reads them. */
  val Settings: Map[String, String] = Map(
    "spark.sql.shuffle.partitions" -> ShufflePartitions.toString,
    "spark.sql.autoBroadcastJoinThreshold" -> "-1",
  )

  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config(Settings)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
