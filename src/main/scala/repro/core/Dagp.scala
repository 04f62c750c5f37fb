package repro.core

import repro.gp.{EiMcmc, GpKernel}
import scala.util.Random

/** Datasize-Aware Gaussian Process (paper §3.4).
  *
  * Models `t = f(conf, ds)` (eq. 7): the GP input is the configuration's
  * (extracted) feature vector with the normalized input datasize appended as
  * one more dimension, so one model serves every datasize and LOCAT never
  * re-tunes from scratch when `ds` changes.
  *
  * Targets are `log(seconds)`: execution-time noise is multiplicative and the
  * dynamic range is wide, and on the log scale the paper's stop condition
  * "EI below 10%" becomes the clean `EI < ln(1.1)` (expected *relative*
  * improvement under 10%).
  */
object Dagp {

  /** One training observation. */
  final case class Sample(features: Array[Double], datasizeGB: Double, seconds: Double) {
    require(seconds > 0, "execution time must be positive")
  }

  /** Stop threshold: expected log-improvement equivalent to 10% (paper §3.4). */
  val EiStopThreshold: Double = math.log(1.1)

  val DsScaleGB: Double = 1000.0

  def inputVec(features: Array[Double], datasizeGB: Double): Array[Double] =
    features :+ (datasizeGB / DsScaleGB)

  /** Fit the marginalized GP (isotropic Matérn-5/2) over (features, ds) →
    * log seconds, with `nMcmcSamples` hyperparameter draws after `nBurn`
    * burn-in steps.
    */
  def fit(samples: Seq[Sample], rng: Random, nMcmcSamples: Int, nBurn: Int): EiMcmc.Marginalized = {
    require(samples.nonEmpty, "DAGP needs at least one sample")
    val xs = samples.map(s => inputVec(s.features, s.datasizeGB))
    val ys = samples.map(s => math.log(s.seconds))
    EiMcmc.fitMarginalized(GpKernel.Matern52(ard = false), xs, ys, rng, nSamples = nMcmcSamples, nBurn = nBurn)
  }
}
