package repro.core

/** Result of executing a (possibly query-reduced) Spark SQL application once.
  *
  * @param perQuerySeconds execution time of each executed query, in order
  * @param gcSeconds       total JVM GC time attributed to the run
  */
final case class ExecResult(perQuerySeconds: Map[String, Double], gcSeconds: Double) {
  /** Total application wall time (queries run sequentially), summed in map order. */
  def totalSeconds: Double = perQuerySeconds.values.sum
}

/** What every tuner optimizes against: run the application with a
  * configuration at a datasize, optionally restricted to a query subset
  * (LOCAT's RQA), and observe execution metrics.
  *
  * Implementations: `repro.cluster.SparkClusterSimulator` (paper-scale
  * experiments) and `repro.sparkexec.SparkObjective` (real Spark session).
  */
trait TuningObjective {
  /** Query identifiers of the full application, in execution order. */
  def queries: Seq[String]

  /** Execute once. `subset = None` runs the full application. */
  def run(conf: ConfigValues, datasizeGB: Double, subset: Option[Seq[String]] = None): ExecResult

  /** Human-readable workload name (bench reporting). */
  def workloadName: String
}

/** One observed execution during tuning. Its scope is the queries that ran,
  * `result.perQuerySeconds.keySet` (the RQA is a subset of the full app).
  */
final case class Trial(conf: ConfigValues, datasizeGB: Double, result: ExecResult) {
  /** The wall time the tuner paid for this observation. */
  def costSeconds: Double = result.totalSeconds
}

/** Outcome of a tuning session: the trials it paid for, in execution order,
  * and the one whose configuration it recommends. Everything it reports is
  * read from those trials, so the optimization time is by construction the
  * sum of the trial costs and the recommended configuration one that ran.
  */
final case class TuningResult(trials: Seq[Trial], best: Trial) {
  require(trials.exists(_ eq best), "the recommended trial must be one of the trials")

  /** Best configuration found (full parameter set). */
  def bestConf: ConfigValues = best.conf

  /** Full-application time of `bestConf` as observed when it ran. */
  def bestTimeSeconds: Double = best.result.totalSeconds

  /** Total execution time spent to find it (the paper's "optimization
    * time"), excluding negligible model-fitting CPU: the trial costs summed
    * in trial order.
    */
  def optimizationSeconds: Double = trials.map(_.costSeconds).sum
}

/** The trial ledger every tuner records through: it runs `objective` and
  * keeps the trials in execution order.
  */
final class TrialLog(objective: TuningObjective) {
  private val buf = scala.collection.mutable.ArrayBuffer.empty[Trial]

  /** Execute once and record it; the cost is the run's wall time. */
  def run(conf: ConfigValues, ds: Double, subset: Option[Seq[String]] = None): Trial = {
    val t = Trial(conf, ds, objective.run(conf, ds, subset))
    add(t)
    t
  }

  /** Record a trial executed elsewhere (a graft's inner tuner). */
  def add(t: Trial): Unit = buf += t

  def size: Int = buf.size
  def trials: Seq[Trial] = buf.toVector

  /** Sum of the recorded costs, in trial order. */
  def cost: Double = buf.map(_.costSeconds).sum

  /** The first trial with the lowest observed time. */
  def best: Trial = buf.minBy(_.result.totalSeconds)

  def result(best: Trial): TuningResult = TuningResult(trials, best)
}

/** A configuration auto-tuner (LOCAT or one of the four SOTA baselines). */
trait Tuner {
  def name: String

  /** Tune `objective` on `space` for input size `datasizeGB`. */
  def tune(objective: TuningObjective, space: ConfigSpace, datasizeGB: Double, seed: Long): TuningResult
}
