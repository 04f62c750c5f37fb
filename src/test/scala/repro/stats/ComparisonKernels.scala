package repro.stats

import repro.linalg.Mat.sqDist

/** Polynomial kernel (xᵀy + 1)², the one Fig 6 compares. */
case object Polynomial extends KpcaKernel {
  def apply(x: Array[Double], y: Array[Double]): Double = {
    var dot = 0.0; var i = 0
    while (i < x.length) { dot += x(i) * y(i); i += 1 }
    math.pow(dot + 1.0, 2.0)
  }
}

/** Perceptron (negative-distance) kernel −||x−y||, conditionally positive
  * definite; usable in KPCA after double-centering.
  */
case object Perceptron extends KpcaKernel {
  def apply(x: Array[Double], y: Array[Double]): Double = -math.sqrt(sqDist(x, y))
}
