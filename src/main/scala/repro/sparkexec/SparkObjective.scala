package repro.sparkexec

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{ConfigParam, ConfigSpace, ConfigValues, ExecResult, ParamKind, TuningObjective}

/** Real-Spark tuning objective: applies a configuration to the live session,
  * executes the workload's queries through Catalyst, and reports wall-clock
  * plus JVM GC seconds observed via a SparkListener.
  *
  * Only the runtime-settable `spark.sql.*` subset of Table 2 can be tuned on
  * a live local session (executor topology is fixed at session start — the
  * cluster-level parameters are exercised by the simulator instead; see
  * DESIGN.md §2). Queries are forced end-to-end with the `noop` DataSourceV2
  * sink so the full physical plan executes.
  */
final class SparkObjective(
    spark: SparkSession,
    queriesToRun: Seq[LiteQuery],
    tables: Map[String, DataFrame],
    name: String = "real-spark",
) extends TuningObjective {

  // register inputs once as temp views
  tables.foreach { case (n, df) => df.createOrReplaceTempView(n) }

  private val listener = new MetricsListener
  spark.sparkContext.addSparkListener(listener)
  private val skipped = scala.collection.mutable.Set.empty[String]

  override def workloadName: String = name
  override def queries: Seq[String] = queriesToRun.map(_.id)

  /** Set every `runtimeSpace` parameter on the session. Other keys (the
    * cluster-level parameters, names outside `runtimeSpace`, and keys this
    * Spark rejects) are skipped and recorded in `skippedKeys`, so a tuning run
    * cannot crash on them and cannot silently "tune" them either.
    */
  def applyConf(conf: ConfigValues): Unit = {
    conf.values.foreach { case (key, v) =>
      SparkObjective.runtimeParams.get(key) match {
        case Some(p) =>
          try spark.conf.set(key, SparkObjective.render(p, v))
          catch { case _: Exception => skipped += key }
        case None => skipped += key
      }
    }
  }

  /** Keys this objective's `applyConf` calls have skipped so far. */
  def skippedKeys: Set[String] = skipped.toSet

  /** Runs the workload's queries, or those of `subset`, in workload order.
    * An id outside the workload throws `NoSuchElementException`, as the
    * simulator does, before the configuration is applied.
    */
  override def run(conf: ConfigValues, datasizeGB: Double, subset: Option[Seq[String]] = None): ExecResult = {
    for (ids <- subset; id <- ids if !queries.contains(id)) throw new NoSuchElementException(s"no query $id in $name")
    applyConf(conf)
    val wanted = subset.map(_.toSet)
    val toRun = queriesToRun.filter(q => wanted.forall(_.contains(q.id)))
    var gcTotal = 0.0
    val times = toRun.map { q =>
      listener.reset()
      val t0 = System.nanoTime()
      spark.sql(q.sql).write.format("noop").mode("overwrite").save()
      val sec = (System.nanoTime() - t0) / 1e9
      gcTotal += listener.gcSeconds
      q.id -> sec
    }.toMap
    ExecResult(times, gcTotal)
  }
}

object SparkObjective {
  /** Small-data tuning space for the live local session (ranges scaled to
    * SF ≤ 0.1 inputs; Table 2's 100–1000 shuffle partitions would be all
    * overhead at megabyte scale).
    */
  val runtimeSpace: ConfigSpace = ConfigSpace(Seq(
    ConfigParam("spark.sql.shuffle.partitions", 200, ParamKind.IntK, (4, 64), (4, 64)),
    ConfigParam("spark.sql.autoBroadcastJoinThreshold", 1024, ParamKind.IntK, (1, 8192), (1, 8192)),
    ConfigParam("spark.sql.inMemoryColumnarStorage.batchSize", 10000, ParamKind.IntK, (1000, 20000), (1000, 20000)),
    ConfigParam("spark.sql.inMemoryColumnarStorage.compressed", 1.0, ParamKind.BoolK, (0, 1), (0, 1)),
    ConfigParam("spark.sql.codegen.maxFields", 100, ParamKind.IntK, (50, 200), (50, 200)),
    ConfigParam("spark.sql.join.preferSortMergeJoin", 1.0, ParamKind.BoolK, (0, 1), (0, 1)),
    ConfigParam("spark.sql.sort.enableRadixSort", 1.0, ParamKind.BoolK, (0, 1), (0, 1)),
  ), useRangeA = true)

  private val runtimeParams: Map[String, ConfigParam] = runtimeSpace.params.map(p => p.name -> p).toMap

  /** A runtime parameter's Table 2 value as a Spark conf string: booleans as
    * true/false, integers rounded to at least 1, and autoBroadcastJoinThreshold
    * from Table 2's KB to bytes.
    */
  private def render(p: ConfigParam, v: Double): String =
    if (p.isBool) (if (v >= 0.5) "true" else "false")
    else if (p.name == "spark.sql.autoBroadcastJoinThreshold") (math.round(v) * 1024L).toString
    else math.max(1, math.round(v)).toString
}
