package repro.ml

import org.apache.commons.math3.stat.regression.OLSMultipleLinearRegression

/** Ordinary least squares linear regression (commons-math3's
  * `OLSMultipleLinearRegression`, QR-based) — the "LinearR" comparator in Fig 16.
  */
final class LinearRegression private (val weights: Array[Double], val bias: Double) {
  def predict(x: Array[Double]): Double = {
    var s = bias; var i = 0
    while (i < x.length) { s += weights(i) * x(i); i += 1 }
    s
  }
}

object LinearRegression {
  /** Throws when the design has no more rows than its d + 1 columns, and
    * `SingularMatrixException` when QR meets an exactly zero pivot (an
    * all-zero column); a column that repeats another may fit or throw.
    */
  def fit(x: Seq[Array[Double]], y: Seq[Double]): LinearRegression = {
    require(x.nonEmpty && x.size == y.size, "linear regression needs equal non-empty x/y")
    val ols = new OLSMultipleLinearRegression()
    ols.newSampleData(y.toArray, x.toArray)
    val w = ols.estimateRegressionParameters() // intercept first
    new LinearRegression(w.tail, w.head)
  }
}

/** Logistic regression by gradient descent — the "LR" comparator in Fig 16.
  *
  * The paper (oddly) lists logistic regression among *regression* models for
  * execution time; following common practice for that comparison we binarize
  * the target around its median, fit LR, and predict time as
  * p·mean(high) + (1−p)·mean(low) — which is exactly why LR fares poorly.
  */
final class LogisticRegressionModel private (
    weights: Array[Double], bias: Double, loMean: Double, hiMean: Double) {
  private def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  def predictProb(x: Array[Double]): Double = {
    var s = bias; var i = 0
    while (i < x.length) { s += weights(i) * x(i); i += 1 }
    sigmoid(s)
  }

  /** Regression-style prediction via class-mean mixing. */
  def predict(x: Array[Double]): Double = {
    val p = predictProb(x)
    p * hiMean + (1.0 - p) * loMean
  }
}

object LogisticRegressionModel {
  /** Full-batch gradient-descent epochs and step size. */
  private val Epochs = 300
  private val Lr = 0.5

  def fit(x: Seq[Array[Double]], y: Seq[Double]): LogisticRegressionModel = {
    require(x.size == y.size && x.nonEmpty, "lr needs equal non-empty x/y")
    val median = y.sorted.apply(y.size / 2)
    val labels = y.map(v => if (v > median) 1.0 else 0.0)
    val lo = y.zip(labels).collect { case (v, 0.0) => v }
    val hi = y.zip(labels).collect { case (v, 1.0) => v }
    val loMean = if (lo.isEmpty) y.min else lo.sum / lo.size
    val hiMean = if (hi.isEmpty) y.max else hi.sum / hi.size
    val d = x.head.length
    val w = new Array[Double](d)
    var b = 0.0
    var e = 0
    while (e < Epochs) {
      val gw = new Array[Double](d)
      var gb = 0.0
      x.indices.foreach { i =>
        var z = b; var j = 0
        while (j < d) { z += w(j) * x(i)(j); j += 1 }
        val p = 1.0 / (1.0 + math.exp(-z))
        val err = p - labels(i)
        j = 0
        while (j < d) { gw(j) += err * x(i)(j); j += 1 }
        gb += err
      }
      var j = 0
      while (j < d) { w(j) -= Lr * gw(j) / x.size; j += 1 }
      b -= Lr * gb / x.size
      e += 1
    }
    new LogisticRegressionModel(w, b, loMean, hiMean)
  }
}
