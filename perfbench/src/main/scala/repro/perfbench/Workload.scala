package repro.perfbench

import repro.core.TuningResult

/** What one pass of a workload produced, beyond its timings.
  *
  * @param optSeconds optimization seconds each tuning session of the pass
  *                   reported (summed over the session's calls)
  * @param speedups   per tuning call: default-configuration time over the
  *                   returned configuration's time
  */
final case class PassOutcome(optSeconds: Seq[Double], speedups: Seq[Double])

/** A benchmark workload: a set-up step and a pass, a fixed unit of work that
  * `Main` repeats for the measured time. Inputs derive from `seed` only.
  */
trait Workload {
  /** Set up once; returns the set-up seconds to report. */
  def setup(): Double

  def pass(rec: PassRecorder): PassOutcome

  /** A small unit of the same work that repeats identically: simulator
    * set-ups time it, and a traced run times it plain and traced for the overhead.
    */
  def unit(rec: PassRecorder): Unit

  /** True when every pass repeats identical work, so outcomes must repeat bit for bit. */
  def deterministic: Boolean

  /** Per-layer numbers of the Spark execution and oracle layers, when the
    * workload already holds a Spark session; otherwise `Main` starts one.
    */
  def sparkReplay(): Option[Map[String, Double]] = None

  def close(): Unit = ()
}

/** Shared plumbing for running a tuning call: wall time, span and failures. */
final class CallRunner(tally: Tally) {
  /** Run one tuning call under span `spanName`. A call that throws counts as
    * a failed operation and yields None.
    */
  def call(rec: PassRecorder, spanName: String, label: String)(body: => TuningResult): Option[TuningResult] = {
    val t0 = System.nanoTime()
    val r =
      try Some(rec.span(spanName)(body))
      catch { case e: Exception => tally.check(ok = false, s"$label threw: $e"); None }
    rec.tuneCallSeconds += (System.nanoTime() - t0) / 1e9
    r
  }
}
