package repro.gp

/** The GP covariance: Matérn 5/2, the standard choice for BO over machine
  * configurations.
  *
  * Hyperparameters are passed in log-space as a flat vector:
  * `[log σf, log ℓ₁ … log ℓ_d]` for ARD, or `[log σf, log ℓ]` for isotropic.
  * (Observation noise is handled by the GP itself, not the kernel.)
  */
object GpKernel {
  private val Sqrt5 = math.sqrt(5.0)

  final case class Matern52(ard: Boolean) {
    /** Number of hyperparameters for input dimensionality d. */
    def nHypers(d: Int): Int = if (ard) 1 + d else 2

    /** This kernel at fixed log-hyperparameters, with σf² and the
      * lengthscales exponentiated once rather than on every evaluation.
      * Entries after the kernel's own (the GP appends its noise) are ignored.
      */
    def at(logHypers: Array[Double]): Prepared = new Prepared(logHypers, ard)

    def apply(x: Array[Double], y: Array[Double], logHypers: Array[Double]): Double = at(logHypers)(x, y)
  }

  /** The kernel with its hyperparameters fixed; see [[Matern52.at]]. */
  final class Prepared private[GpKernel] (logHypers: Array[Double], ard: Boolean) {
    private val sf2 = math.exp(2.0 * logHypers(0))
    // ARD: ℓ of coordinate t at t; isotropic: the one ℓ at 0
    private val ls = logHypers.tail.map(math.exp)

    private def lengthscale(t: Int): Double = if (ard) ls(t) else ls(0)

    /** The kernel at scaled squared distance r2 = Σ_t ((x_t − y_t) / ℓ_t)². */
    def atSqDist(r2: Double): Double = {
      val a = Sqrt5 * math.sqrt(r2)
      sf2 * (1.0 + a + a * a / 3.0) * math.exp(-a)
    }

    def apply(x: Array[Double], y: Array[Double]): Double = {
      var s = 0.0; var t = 0
      while (t < x.length) { val d = (x(t) - y(t)) / lengthscale(t); s += d * d; t += 1 }
      atSqDist(s)
    }

    /** The scaled squared distances from `x` to the points j ∈ [from, until)
      * of the transposed set `cols` (point j's coordinate t at `cols(t)(j)`):
      * r2(j) = Σ_t ((cols(t)(j) − x(t)) / ℓ_t)², summed from 0.0 with t
      * ascending, so each r2(j) has the bits of `apply`'s sum.
      *
      * That order is the kernel's rounding rule: divide the difference by ℓ,
      * then square and add, coordinate by coordinate. Multiplying by 1/ℓ or
      * summing d²/ℓ² rounds differently, and a last-bit change flips
      * Metropolis–Hastings accept decisions. The sign of the difference does
      * not matter: (a − b)/ℓ is exactly −((b − a)/ℓ).
      */
    private[gp] def sqDistRow(x: Array[Double], cols: Array[Array[Double]], from: Int, until: Int,
                              r2: Array[Double]): Unit = {
      java.util.Arrays.fill(r2, from, until, 0.0)
      var t = 0
      while (t < x.length) {
        val col = cols(t); val xt = x(t); val l = lengthscale(t)
        var j = from
        while (j < until) { val d = (col(j) - xt) / l; r2(j) += d * d; j += 1 }
        t += 1
      }
    }
  }
}
