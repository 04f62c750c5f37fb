package repro.perfbench

import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.{Oracle, SynthData}
import repro.core.{ConfigValues, Locat, TuningResult}
import repro.sparkexec.{LiteQueries, LiteQuery, SparkObjective}

/** Task totals seen by a listener the benchmark registers itself. */
final class TaskTotals extends SparkListener {
  private val tasks = new AtomicLong
  private val runMs = new AtomicLong
  private val gcMs = new AtomicLong
  private val shuffleBytes = new AtomicLong
  private val spillBytes = new AtomicLong

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) {
      tasks.incrementAndGet()
      runMs.addAndGet(m.executorRunTime)
      gcMs.addAndGet(m.jvmGCTime)
      shuffleBytes.addAndGet(m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten)
      spillBytes.addAndGet(m.memoryBytesSpilled + m.diskBytesSpilled)
    }
  }

  def taskCount: Long = tasks.get

  def snapshot: Map[String, Double] = Map(
    "sparkexec.tasks" -> tasks.get.toDouble,
    "sparkexec.executor_run_s" -> runMs.get / 1e3,
    "sparkexec.gc_s" -> gcMs.get / 1e3,
    "sparkexec.shuffle_mb" -> shuffleBytes.get / 1e6,
    "sparkexec.spill_mb" -> spillBytes.get / 1e6)
}

/** A live local Spark session holding the real-Spark workload: the TPC-H-lite
  * subset plus HiBench AGG over cached SynthData tables at scale factor 0.004,
  * and the one `SparkObjective` that runs them. Only one objective is built
  * per process: each construction registers a listener that is never removed.
  */
final class SparkStage(tally: Tally, localDir: String) {
  val sf = 0.004
  val queries: Seq[LiteQuery] =
    LiteQueries.tpch.filter(q => Set("Q1", "Q3", "Q5", "Q6", "Q12", "Q13")(q.id)) :+ LiteQueries.hibenchAggregation
  val space = SparkObjective.runtimeSpace

  val spark: SparkSession = SparkSession.builder
    .master("local[*]")
    .appName("perfbench")
    .config("spark.ui.enabled", "false")
    .config("spark.driver.host", "127.0.0.1")
    .config("spark.local.dir", localDir)
    .config("spark.sql.warehouse.dir", s"$localDir/warehouse")
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.autoBroadcastJoinThreshold", "-1")
    .getOrCreate()
  spark.sparkContext.setLogLevel("ERROR")

  private val tables: Map[String, DataFrame] = Map(
    "lineitem" -> SynthData.lineitem(spark, sf),
    "orders" -> SynthData.orders(spark, sf),
    "customer" -> SynthData.customer(spark, sf),
    "uservisits" -> SynthData.uservisits(spark, sf),
  ).map { case (k, v) => k -> v.cache() }
  tables.values.foreach(_.count())

  val objective = new SparkObjective(spark, queries, tables, name = "tpch-lite-real")

  /** Check each query against DuckDB; returns the seconds each check took. */
  def oracleCheck(qs: Seq[LiteQuery]): Seq[Double] = qs.map { q =>
    val (err, sec) = Stat.seconds {
      try { Oracle.assertEquivalent(spark.sql(q.sql), q.sql, q.tables.map(n => n -> tables(n)): _*); None }
      catch { case e: Exception => Some(e) }
    }
    err.foreach(e => Console.err.println(s"[perfbench] oracle ${q.id}: $e"))
    tally.check(err.isEmpty, s"${q.id} differs from DuckDB")
    sec
  }

  /** Restore the session settings a tuning session may have changed. */
  def restoreDefaults(): Unit = {
    objective.applyConf(space.defaults)
    spark.conf.set("spark.sql.autoBroadcastJoinThreshold", -1)
  }

  /** Canonical result rows of every query under `conf`. */
  def rowsUnder(conf: ConfigValues): Map[String, Seq[String]] = {
    objective.applyConf(conf)
    val rows = queries.map(q => q.id -> Checks.canonical(spark.sql(q.sql).collect().toSeq)).toMap
    restoreDefaults()
    rows
  }

  /** Median full-application seconds of `conf` over three executions. */
  def timeOf(conf: ConfigValues): Double = {
    val t = Stat.median((1 to 3).map(_ => objective.run(conf, sf, None).totalSeconds))
    restoreDefaults()
    t
  }

  /** Replay of the execution layer: after two warm-up executions, three
    * default-configuration executions of the application, with task totals
    * from a listener registered for the replay (per execution), plus the
    * median seconds of the given oracle checks.
    */
  def replay(oracleSeconds: Seq[Double]): Map[String, Double] = {
    val runs = 3
    (1 to 2).foreach(_ => objective.run(space.defaults, sf, None))
    val totals = new TaskTotals
    spark.sparkContext.addSparkListener(totals)
    val walls = (1 to runs).map(_ => Stat.seconds(objective.run(space.defaults, sf, None))._2)
    // Listener events arrive asynchronously: wait until the task count settles.
    var seen = -1L
    while (seen != totals.taskCount) { seen = totals.taskCount; Thread.sleep(200) }
    spark.sparkContext.removeSparkListener(totals)
    totals.snapshot.map { case (k, v) => k -> v / runs } ++ Map(
      "sparkexec.run_s" -> Stat.median(walls),
      "oracle.check_s" -> Stat.median(oracleSeconds))
  }

  def close(): Unit = spark.stop()
}

/** LOCAT on the live local Spark session. Each pass is one tuning session with
  * a fixed iteration budget (`minIter == maxIter`) and its own derived seed.
  * Set-up checks every query against DuckDB, records the result rows under
  * the defaults and runs one small discarded session to warm up.
  */
final class RealSpark(seed: Long, tally: Tally, checks: Checks, tiny: Boolean, localDir: String)
    extends Workload {
  private val runner = new CallRunner(tally)
  private val warmupLocat = new Locat(nQcsa = 5, nIicp = 4, minIter = 1, maxIter = 1)
  private val locat = if (tiny) warmupLocat else new Locat(nQcsa = 10, nIicp = 8, minIter = 4, maxIter = 4)

  private var stage: SparkStage = _
  private var obj: BenchObjective = _
  private var oracleSeconds: Seq[Double] = Nil
  private var defaultRows: Map[String, Seq[String]] = Map.empty
  private var defaultSeconds = 0.0
  private var sessionNo = 0

  override def deterministic: Boolean = false

  private def session(rec: PassRecorder): Option[TuningResult] = {
    val s = Stat.derive(seed, s"session/$sessionNo")
    sessionNo += 1
    obj.rec = rec
    val r = runner.call(rec, "core.locat", s"LOCAT real-spark seed $s")(locat.tune(obj, stage.space, stage.sf, s))
    stage.restoreDefaults()
    r
  }

  override def setup(): Double = Stat.seconds {
    stage = new SparkStage(tally, localDir)
    obj = new BenchObjective(stage.objective, tally, perQueryWalls = true)
    oracleSeconds = stage.oracleCheck(if (tiny) stage.queries.take(1) else stage.queries)
    defaultRows = stage.rowsUnder(stage.space.defaults)
    obj.rec = new PassRecorder(traced = false)
    runner.call(obj.rec, "core.locat", "LOCAT real-spark warm-up")(
      warmupLocat.tune(obj, stage.space, stage.sf, Stat.derive(seed, "warm-up")))
    stage.restoreDefaults()
    defaultSeconds = stage.timeOf(stage.space.defaults)
  }._2

  // One default-configuration execution of the application.
  override def unit(rec: PassRecorder): Unit = {
    obj.rec = rec
    obj.run(stage.space.defaults, stage.sf, None)
  }

  override def pass(rec: PassRecorder): PassOutcome = session(rec) match {
    case Some(r) =>
      val label = s"LOCAT real-spark session $sessionNo"
      checks.bestConf(label, stage.space, r)
      checks.oneShotCost(label, r)
      val rows = stage.rowsUnder(r.bestConf)
      stage.queries.foreach(q => checks.sameRows(s"$label ${q.id}", defaultRows(q.id), rows(q.id)))
      PassOutcome(Seq(checks.reportedCost(r)), Seq(defaultSeconds / stage.timeOf(r.bestConf)))
    case None => PassOutcome(Nil, Nil)
  }

  override def sparkReplay(): Option[Map[String, Double]] = Some(stage.replay(oracleSeconds))

  override def close(): Unit = if (stage != null) stage.close()
}
