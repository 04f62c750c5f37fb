package repro.ml

/** Gradient-Boosted Regression Trees (squared loss).
  *
  * Used by the DAC baseline's performance model and by the Fig 16/17
  * model-accuracy and importance comparisons. Boosting on residuals with a
  * constant learning rate; squared loss means each stage fits plain residuals.
  */
final class Gbrt private (stages: Array[RegressionTree], base: Double, learningRate: Double) {
  def predict(x: Array[Double]): Double = {
    var s = 0.0
    var m = 0
    while (m < stages.length) { s += stages(m).predict(x); m += 1 }
    base + s * learningRate
  }

  /** Importance summed over all stages, normalized to sum to 1. */
  def featureImportance: Array[Double] = {
    val d = stages.head.nFeatures
    val imp = new Array[Double](d)
    stages.foreach { t =>
      val ti = t.featureImportance
      var i = 0
      while (i < d) { imp(i) += ti(i); i += 1 }
    }
    val tot = imp.sum
    if (tot <= 0) imp else imp.map(_ / tot)
  }
}

object Gbrt {
  def fit(x: Seq[Array[Double]], y: Seq[Double], nTrees: Int, maxDepth: Int,
          learningRate: Double = 0.1, minSamplesLeaf: Int = 3): Gbrt = {
    require(x.nonEmpty && x.size == y.size, "gbrt needs equal non-empty x/y")
    require(nTrees >= 1, s"gbrt needs at least one tree, got $nTrees")
    val xa = x.toArray
    val orders = RegressionTree.presort(xa)
    val base = y.sum / y.size
    val residual = y.map(_ - base).toArray
    val stages = new Array[RegressionTree](nTrees)
    var m = 0
    while (m < nTrees) {
      // the tree keeps no reference to `residual`, which is updated only after it is built
      val t = RegressionTree.fitSorted(xa, residual, orders, maxDepth, minSamplesLeaf)
      var i = 0
      while (i < residual.length) { residual(i) -= learningRate * t.predict(xa(i)); i += 1 }
      stages(m) = t
      m += 1
    }
    new Gbrt(stages, base, learningRate)
  }
}
