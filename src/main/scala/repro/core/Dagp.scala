package repro.core

/** Datasize-Aware Gaussian Process (paper §3.4).
  *
  * Models `t = f(conf, ds)` (eq. 7): the GP input is the configuration's
  * (extracted) feature vector with the normalized input datasize appended as
  * one more dimension, so one model serves every datasize and LOCAT never
  * re-tunes from scratch when `ds` changes. LOCAT fits and proposes through
  * the shared BO step (`EiMcmc.propose`) on these inputs.
  *
  * Targets are `log(seconds)`: execution-time noise is multiplicative and the
  * dynamic range is wide, and on the log scale the paper's stop condition
  * "EI below 10%" becomes the clean `EI < ln(1.1)` (expected *relative*
  * improvement under 10%).
  */
object Dagp {

  /** Stop threshold: expected log-improvement equivalent to 10% (paper §3.4). */
  val EiStopThreshold: Double = math.log(1.1)

  val DsScaleGB: Double = 1000.0

  def inputVec(features: Array[Double], datasizeGB: Double): Array[Double] =
    features :+ (datasizeGB / DsScaleGB)
}
