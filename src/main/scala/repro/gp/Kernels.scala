package repro.gp

/** GP covariance functions.
  *
  * Hyperparameters are passed in log-space as a flat vector:
  * `[log σf, log ℓ₁ … log ℓ_d]` for ARD, or `[log σf, log ℓ]` for isotropic.
  * (Observation noise is handled by the GP itself, not the kernel.)
  */
sealed trait GpKernel {
  /** Number of hyperparameters for input dimensionality d. */
  def nHypers(d: Int): Int

  /** This kernel at fixed log-hyperparameters, with σf² and the lengthscales
    * exponentiated once rather than on every evaluation. Entries after the
    * kernel's own (the GP appends its noise) are ignored.
    */
  def at(logHypers: Array[Double]): GpKernel.Prepared

  def apply(x: Array[Double], y: Array[Double], logHypers: Array[Double]): Double = at(logHypers)(x, y)
}

object GpKernel {
  /** A kernel with its hyperparameters fixed; see [[GpKernel.at]]. */
  sealed abstract class Prepared(logHypers: Array[Double], ard: Boolean) {
    protected final val sf2: Double = math.exp(2.0 * logHypers(0))
    // ARD: ℓ of coordinate i at i; isotropic: the one ℓ at 0
    private val ls: Array[Double] = logHypers.tail.map(math.exp)

    /** ℓ of coordinate `t` (the shared ℓ for an isotropic kernel). */
    final def lengthscale(t: Int): Double = if (ard) ls(t) else ls(0)

    /** The kernel at scaled squared distance r2 = Σ_t ((x_t − y_t) / ℓ_t)². */
    def atSqDist(r2: Double): Double

    final def apply(x: Array[Double], y: Array[Double]): Double = atSqDist(sqDistScaled(x, y))

    // Divides by ℓ and sums (d/ℓ)² coordinate by coordinate: multiplying by
    // 1/ℓ or summing d²/ℓ² would round differently. Batched callers that
    // build r2 themselves must keep this order.
    private def sqDistScaled(x: Array[Double], y: Array[Double]): Double = {
      var s = 0.0; var i = 0
      if (ard) while (i < x.length) { val d = (x(i) - y(i)) / ls(i); s += d * d; i += 1 }
      else { val l = ls(0); while (i < x.length) { val d = (x(i) - y(i)) / l; s += d * d; i += 1 } }
      s
    }
  }

  private val Sqrt5 = math.sqrt(5.0)

  /** Matern 5/2 — the standard choice for BO over machine configurations. */
  final case class Matern52(ard: Boolean) extends GpKernel {
    def nHypers(d: Int): Int = if (ard) 1 + d else 2
    def at(logHypers: Array[Double]): Prepared = new Prepared(logHypers, ard) {
      def atSqDist(r2: Double): Double = {
        val a = Sqrt5 * math.sqrt(r2)
        sf2 * (1.0 + a + a * a / 3.0) * math.exp(-a)
      }
    }
  }
}
