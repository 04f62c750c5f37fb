package repro.stats

import org.apache.commons.math3.stat.correlation.SpearmansCorrelation

/** Descriptive statistics used throughout LOCAT: mean, (population) standard
  * deviation, Coefficient of Variation (paper eq. 3), and the Spearman
  * Correlation Coefficient used by CPS (paper §3.3.2).
  */
object Stats {

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of empty seq")
    xs.sum / xs.size
  }

  /** Population standard deviation (divides by N, as in paper eq. 3). */
  def sd(xs: Seq[Double]): Double = {
    val m = mean(xs)
    math.sqrt(xs.map(x => (x - m) * (x - m)).sum / xs.size)
  }

  /** Coefficient of Variation: SD / mean (paper eq. 3). Zero-mean series → 0. */
  def cv(xs: Seq[Double]): Double = {
    val m = mean(xs)
    if (m == 0.0) 0.0 else sd(xs) / m
  }

  /** Spearman Correlation Coefficient (commons-math3's `SpearmansCorrelation`:
    * Pearson correlation of the ranks, ties given their average rank).
    * A constant series gives SCC = 0; a NaN value throws.
    */
  def spearman(xs: Seq[Double], ys: Seq[Double]): Double = {
    val r = new SpearmansCorrelation().correlation(xs.toArray, ys.toArray)
    if (r.isNaN) 0.0 else r
  }

  /** Standard normal PDF / CDF (Abramowitz–Stegun erf approximation), used by EI. */
  def normPdf(z: Double): Double = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.Pi)

  def normCdf(z: Double): Double = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))

  def erf(x: Double): Double = {
    // Abramowitz & Stegun 7.1.26, |error| < 1.5e-7
    val sign = if (x < 0) -1.0 else 1.0
    val ax = math.abs(x)
    val t = 1.0 / (1.0 + 0.3275911 * ax)
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t + 0.254829592) * t * math.exp(-ax * ax)
    sign * y
  }
}
