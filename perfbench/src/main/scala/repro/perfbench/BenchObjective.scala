package repro.perfbench

import repro.core.{ConfigValues, ExecResult, TuningObjective}

/** Objective wrapper: every `run` the tuner makes passes through here, so the
  * benchmark times executions and counts them without tracing inside the
  * program.
  *
  * @param perQueryWalls true when `ExecResult.perQuerySeconds` are measured
  *                      wall times (live Spark) to keep as query samples; the
  *                      simulator's are modelled seconds.
  */
final class BenchObjective(inner: TuningObjective, tally: Tally, perQueryWalls: Boolean)
    extends TuningObjective {
  var rec: PassRecorder = new PassRecorder(traced = false)

  override def queries: Seq[String] = inner.queries
  override def workloadName: String = inner.workloadName

  override def run(conf: ConfigValues, datasizeGB: Double, subset: Option[Seq[String]]): ExecResult = {
    val t0 = System.nanoTime()
    val res =
      try rec.span("objective")(inner.run(conf, datasizeGB, subset))
      catch { case e: Exception => tally.check(ok = false, s"objective run threw: $e"); throw e }
    val sec = (System.nanoTime() - t0) / 1e9
    tally.check(res.perQuerySeconds.nonEmpty && res.totalSeconds > 0, "objective run returned no time")
    val nq = res.perQuerySeconds.size
    if (perQueryWalls) rec.querySeconds ++= res.perQuerySeconds.values
    rec.add("objective.calls", 1)
    rec.add(if (subset.isEmpty) "objective.full_calls" else "objective.rqa_calls", 1)
    rec.add("objective.queries", nq)
    rec.add("objective.s", sec)
    res
  }
}
