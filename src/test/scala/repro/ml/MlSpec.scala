package repro.ml

import org.apache.commons.math3.linear.SingularMatrixException
import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterProfile, SparkClusterSimulator, Workloads}
import repro.core.ConfigSpace
import repro.linalg.Mat
import repro.stats.Stats
import scala.util.Random

class MlSpec extends AnyFunSuite {

  /** One tree from the presorted builder GBRT fits its stages with. */
  private def fitTree(xs: Seq[Array[Double]], ys: Seq[Double], maxDepth: Int, minSamplesLeaf: Int): RegressionTree = {
    val xa = xs.toArray
    RegressionTree.fitSorted(xa, ys.toArray, RegressionTree.presort(xa), maxDepth, minSamplesLeaf)
  }

  private def mse(pred: Seq[Double], actual: Seq[Double]): Double =
    pred.zip(actual).map { case (p, a) => (p - a) * (p - a) }.sum / pred.size

  private def xor(n: Int, rng: Random): (Seq[Array[Double]], Seq[Double]) = {
    val xs = Seq.fill(n)(Array(rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => if ((x(0) > 0.5) != (x(1) > 0.5)) 10.0 else 0.0)
    (xs, ys)
  }

  // --- regression tree -------------------------------------------------------

  test("tree on constant target is a single leaf predicting the constant") {
    val xs = Seq.fill(10)(Array(0.5))
    val t = fitTree(xs, Seq.fill(10)(7.0), maxDepth = 4, minSamplesLeaf = 3)
    assert(t.predict(Array(0.1)) == 7.0)
    assert(t.featureImportance.sum == 0.0)
  }

  test("tree recovers a step function exactly") {
    val xs = (0 until 40).map(i => Array(i / 40.0))
    val ys = xs.map(x => if (x(0) < 0.5) 1.0 else 9.0)
    val t = fitTree(xs, ys, maxDepth = 2, minSamplesLeaf = 3)
    assert(t.predict(Array(0.2)) == 1.0)
    assert(t.predict(Array(0.8)) == 9.0)
  }

  test("tree fits XOR (needs depth 2)") {
    val (xs, ys) = xor(200, new Random(1))
    val t = fitTree(xs, ys, maxDepth = 3, minSamplesLeaf = 5)
    val preds = xs.map(t.predict)
    assert(mse(preds, ys) < 2.0)
  }

  test("tree importance concentrates on the informative feature") {
    val rng = new Random(2)
    val xs = Seq.fill(150)(Array(rng.nextDouble(), rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => 10 * x(1)) // only feature 1 matters
    val t = fitTree(xs, ys, maxDepth = 4, minSamplesLeaf = 3)
    val imp = t.featureImportance
    assert(imp(1) > imp(0) * 10 && imp(1) > imp(2) * 10)
  }

  test("tree respects minSamplesLeaf") {
    val xs = (0 until 10).map(i => Array(i.toDouble))
    val ys = xs.map(_(0))
    val t = fitTree(xs, ys, maxDepth = 10, minSamplesLeaf = 5)
    // with minLeaf=5 on 10 points, at most one split is possible
    val distinct = xs.map(t.predict).distinct
    assert(distinct.size <= 2)
  }

  // --- GBRT --------------------------------------------------------------------

  test("gbrt beats a single tree and the mean predictor on a smooth function") {
    val rng = new Random(3)
    val xs = Seq.fill(200)(Array(rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => math.sin(x(0) * 5) + 2 * x(1))
    val gbrt = Gbrt.fit(xs, ys, nTrees = 80, maxDepth = 3)
    val tree = fitTree(xs, ys, maxDepth = 3, minSamplesLeaf = 3)
    val meanMse = mse(Seq.fill(xs.size)(Stats.mean(ys)), ys)
    val gbrtMse = mse(xs.map(gbrt.predict), ys)
    val treeMse = mse(xs.map(tree.predict), ys)
    assert(gbrtMse < treeMse)
    assert(gbrtMse < meanMse * 0.05)
  }

  test("gbrt feature importance is normalized and finds the right features") {
    val rng = new Random(4)
    val xs = Seq.fill(200)(Array.fill(5)(rng.nextDouble()))
    val ys = xs.map(x => 8 * x(2) + 3 * x(4))
    val g = Gbrt.fit(xs, ys, nTrees = 40, maxDepth = 3)
    val imp = g.featureImportance
    assert(math.abs(imp.sum - 1.0) < 1e-9)
    assert(imp(2) > imp(4) && imp(4) > imp(0) && imp(4) > imp(1) && imp(4) > imp(3))
  }

  test("gbrt with zero trees is rejected implicitly: one tree minimum behaves") {
    val xs = Seq(Array(0.0), Array(1.0), Array(2.0), Array(3.0))
    val ys = Seq(1.0, 2.0, 3.0, 4.0)
    val g = Gbrt.fit(xs, ys, nTrees = 1, maxDepth = 1, minSamplesLeaf = 1)
    val r = PerNodeSortReference.fitGbrt(xs, ys, nTrees = 1, maxDepth = 1, learningRate = 0.1, minSamplesLeaf = 1)
    val probe = xs ++ Seq(Array(-1.0), Array(1.5), Array(9.0))
    assert(bits(probe.map(g.predict)) == bits(probe.map(r.predict)))
  }

  test("gbrt rejects fewer than one tree") {
    val xs = Seq(Array(0.0), Array(1.0), Array(2.0), Array(3.0))
    intercept[IllegalArgumentException](Gbrt.fit(xs, Seq(1.0, 2.0, 3.0, 4.0), nTrees = 0, maxDepth = 3))
  }

  // --- presorted builder == per-node sorting builder, bit for bit ---------------

  private def bits(v: Seq[Double]): Seq[Long] = v.map(java.lang.Double.doubleToRawLongBits)

  private def assertSameTree(xs: Seq[Array[Double]], ys: Seq[Double], probe: Seq[Array[Double]],
                             maxDepth: Int, minLeaf: Int): Unit = {
    val t = fitTree(xs, ys, maxDepth, minLeaf)
    val r = PerNodeSortReference.fitTree(xs, ys, maxDepth, minLeaf)
    assert(bits(probe.map(t.predict)) == bits(probe.map(r.predict)))
    assert(bits(t.featureImportance.toSeq) == bits(r.featureImportance.toSeq))
  }

  private def assertSameGbrt(xs: Seq[Array[Double]], ys: Seq[Double], probe: Seq[Array[Double]],
                             nTrees: Int, maxDepth: Int, minLeaf: Int = 3): Unit = {
    val g = Gbrt.fit(xs, ys, nTrees = nTrees, maxDepth = maxDepth, minSamplesLeaf = minLeaf)
    val r = PerNodeSortReference.fitGbrt(xs, ys, nTrees, maxDepth, 0.1, minLeaf)
    assert(bits(probe.map(g.predict)) == bits(probe.map(r.predict)))
    assert(bits(g.featureImportance.toSeq) == bits(r.featureImportance.toSeq))
  }

  /** Encoded random configurations of the full space: integer and boolean
    * parameters put many rows on the same feature value.
    */
  private def configRows(n: Int, rng: Random): Seq[Array[Double]] = {
    val space = ConfigSpace.full(arm = true)
    Seq.fill(n)(space.encode(space.random(rng)))
  }

  test("presorted tree equals the per-node sorting tree on continuous data") {
    val rng = new Random(12)
    val xs = Seq.fill(150)(Array.fill(5)(rng.nextDouble()))
    val ys = xs.map(x => math.sin(4 * x(0)) + x(1) * x(2) + 0.1 * rng.nextGaussian())
    val probe = xs ++ Seq.fill(100)(Array.fill(5)(rng.nextDouble()))
    Seq(1, 3, 6).foreach(depth => assertSameTree(xs, ys, probe, depth, 3))
    assertSameGbrt(xs, ys, probe, nTrees = 40, maxDepth = 3)
  }

  test("presorted tree equals the per-node sorting tree on tie-heavy config encodings") {
    val rng = new Random(13)
    val xs = configRows(200, rng)
    // few distinct targets, so equal y values meet equal x values
    val ys = xs.map(x => math.round(4 * x(0) + 3 * x(10) + 2 * x(30) + x(37)).toDouble)
    val probe = xs ++ configRows(100, rng)
    Seq(2, 4, 8).foreach(depth => assertSameTree(xs, ys, probe, depth, 3))
    assertSameGbrt(xs, ys, probe, nTrees = 30, maxDepth = 4)
  }

  test("presorted tree equals the per-node sorting tree at minSamplesLeaf edges") {
    val rng = new Random(14)
    val xs = Seq.fill(12)(Array(rng.nextInt(4).toDouble, rng.nextDouble(), rng.nextInt(2).toDouble))
    val ys = xs.map(x => x(0) * 2 + x(2) + rng.nextGaussian())
    val probe = xs ++ Seq.fill(40)(Array(rng.nextInt(5) - 0.5, rng.nextDouble(), rng.nextDouble()))
    // 0 and 1 allow single-row leaves; 6 allows one split of 12 rows; 7 allows none
    Seq(0, 1, 2, 5, 6, 7).foreach(minLeaf => assertSameTree(xs, ys, probe, 10, minLeaf))
    assertSameGbrt(xs, ys, probe, nTrees = 10, maxDepth = 10, minLeaf = 1)
  }

  test("presorted gbrt equals the per-node sorting gbrt at the DAC and QTune shapes") {
    val rng = new Random(15)
    val sim = new SparkClusterSimulator(Workloads.tpcds, ClusterProfile.arm, 15)
    val space = ConfigSpace.full(arm = true)
    val confs = Seq.fill(240)(space.random(rng))
    val logT = confs.map(c => math.log(sim.run(c, 300.0).totalSeconds))
    val units = confs.map(space.encode)
    val probe = configRows(200, rng)
    // DAC: 38 parameters plus datasize, 120 trees of depth 4
    assertSameGbrt(units.map(_ :+ 0.3), logT, (units ++ probe).map(_ :+ 0.3), nTrees = 120, maxDepth = 4)
    // QTune's critic: 38 parameters, 60 trees of depth 3
    assertSameGbrt(units.take(165), logT.take(165), units ++ probe, nTrees = 60, maxDepth = 3)
  }

  // --- linear / logistic --------------------------------------------------------

  test("OLS recovers exact linear coefficients") {
    val rng = new Random(5)
    val xs = Seq.fill(50)(Array(rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => 3.0 * x(0) - 2.0 * x(1) + 0.5)
    val m = LinearRegression.fit(xs, ys)
    assert(math.abs(m.weights(0) - 3.0) < 1e-6)
    assert(math.abs(m.weights(1) + 2.0) < 1e-6)
    assert(math.abs(m.bias - 0.5) < 1e-6)
  }

  test("OLS with noise still close to truth") {
    val rng = new Random(6)
    val xs = Seq.fill(300)(Array(rng.nextDouble()))
    val ys = xs.map(x => 2.0 * x(0) + 1.0 + rng.nextGaussian() * 0.1)
    val m = LinearRegression.fit(xs, ys)
    assert(math.abs(m.weights(0) - 2.0) < 0.15)
  }

  test("OLS throws on a design with an all-zero column") {
    val rng = new Random(9)
    val xs = Seq.fill(20)(Array(rng.nextDouble(), 0.0))
    intercept[SingularMatrixException](LinearRegression.fit(xs, xs.map(x => 2.0 * x(0))))
  }

  test("logistic regression separates a linearly separable target") {
    val rng = new Random(7)
    val xs = Seq.fill(200)(Array(rng.nextDouble()))
    val ys = xs.map(x => if (x(0) > 0.5) 100.0 else 10.0)
    val m = LogisticRegressionModel.fit(xs, ys)
    assert(m.predictProb(Array(0.9)) > 0.7)
    assert(m.predictProb(Array(0.1)) < 0.3)
    assert(m.predict(Array(0.9)) > m.predict(Array(0.1)))
  }

  test("meanRelativeError known value") {
    assert(math.abs(ModelError.meanRelativeError(Seq(110.0, 90.0), Seq(100.0, 100.0)) - 0.1) < 1e-12)
  }

  // --- kernel ridge / knn ---------------------------------------------------------

  test("kernel ridge fits a nonlinearity linear regression cannot") {
    val rng = new Random(8)
    val xs = Seq.fill(120)(Array(rng.nextDouble()))
    val ys = xs.map(x => math.sin(x(0) * 2 * math.Pi))
    val kr = KernelRidge.fit(xs, ys, gamma = 10.0, lambda = 1e-3)
    val lin = LinearRegression.fit(xs, ys)
    val krMse = mse(xs.map(kr.predict), ys)
    val linMse = mse(xs.map(lin.predict), ys)
    assert(krMse < linMse * 0.1, s"kr=$krMse lin=$linMse")
  }

  test("knn with k=1 memorizes training points") {
    val xs = Seq(Array(0.0), Array(1.0), Array(2.0))
    val m = KnnRegression.fit(xs, Seq(5.0, 6.0, 7.0), k = 1)
    assert(m.predict(Array(0.01)) == 5.0)
    assert(m.predict(Array(1.9)) == 7.0)
  }

  test("knn averages the k nearest targets") {
    val xs = Seq(Array(0.0), Array(0.1), Array(5.0))
    val m = KnnRegression.fit(xs, Seq(2.0, 4.0, 100.0), k = 2)
    assert(m.predict(Array(0.05)) == 3.0)
  }

  /** Kernel ridge with its own distance and Gram loops, as its predictor. */
  private def refKernelRidge(x: Seq[Array[Double]], y: Seq[Double], gamma: Double,
                             lambda: Double): Array[Double] => Double = {
    def k(a: Array[Double], b: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
      math.exp(-gamma * s)
    }
    val n = x.size
    val xa = x.toArray
    val yMean = y.sum / n
    val km = Mat.zeros(n, n)
    for (i <- 0 until n; j <- i until n) {
      var s = 0.0; var t = 0
      while (t < xa(i).length) { val d = xa(i)(t) - xa(j)(t); s += d * d; t += 1 }
      val v = math.exp(-gamma * s)
      km(i, j) = v; km(j, i) = v
    }
    (0 until n).foreach(i => km(i, i) += lambda)
    val dual = Mat.choleskySolve(Mat.cholesky(km), y.map(_ - yMean).toArray)
    q => {
      var s = yMean; var i = 0
      while (i < n) { s += dual(i) * k(q, xa(i)); i += 1 }
      s
    }
  }

  /** k-NN with its own distance loop. */
  private def refKnn(x: Seq[Array[Double]], y: Seq[Double], k: Int)(q: Array[Double]): Double = {
    val dists = x.indices.map { i =>
      var s = 0.0; var t = 0
      while (t < q.length) { val d = q(t) - x(i)(t); s += d * d; t += 1 }
      (s, y(i))
    }
    val nearest = dists.sortBy(_._1).take(k)
    nearest.map(_._2).sum / nearest.size
  }

  test("kernel ridge and knn on Fig 16-shaped inputs equal their per-module loops, bit for bit") {
    // Fig 16: 100 training and 50 held-out full-space configurations per workload
    val space = ConfigSpace.full(arm = true)
    Seq(Workloads.tpcds, Workloads.hibenchJoin).foreach { w =>
      val sim = new SparkClusterSimulator(w, ClusterProfile.arm, 16)
      val rng = new Random(16)
      val confs = Seq.fill(150)(space.random(rng))
      val xs = confs.map(space.encode)
      val ys = confs.map(c => sim.run(c, 300.0).totalSeconds)
      val (tx, ty) = (xs.take(100), ys.take(100))
      val kr = KernelRidge.fit(tx, ty.map(math.log), gamma = 0.5, lambda = 1e-2)
      val krRef = refKernelRidge(tx, ty.map(math.log), 0.5, 1e-2)
      assert(bits(xs.map(kr.predict)) == bits(xs.map(krRef)), w.name)
      val knn = KnnRegression.fit(tx, ty, k = 5)
      assert(bits(xs.map(knn.predict)) == bits(xs.map(refKnn(tx, ty, 5))), w.name)
    }
    // Neighbour order rarely hinges on the last bit there, so add a case where it
    // does: summed ascending, both rows lie at exactly 1.0 and the first wins the
    // tie; summed from the other end, 4 × 2⁻⁵⁴ survives and the second is nearer.
    val e = math.pow(2, -27)
    val tie = Seq(Array(1.0, e, e, e, e), Array(1.0, 0.0, 0.0, 0.0, 0.0))
    val origin = Array.fill(5)(0.0)
    assert(KnnRegression.fit(tie, Seq(100.0, 0.0), k = 1).predict(origin) == refKnn(tie, Seq(100.0, 0.0), 1)(origin))
  }

  // --- GA --------------------------------------------------------------------------

  test("GA minimizes a sphere function") {
    def f(u: Array[Double]) = u.map(v => (v - 0.6) * (v - 0.6)).sum
    val best = Ga.minimize(f, d = 5, rng = new Random(9), popSize = 30, generations = 60)
    assert(f(best) < 0.01, s"fitness ${f(best)}")
    best.foreach(v => assert(math.abs(v - 0.6) < 0.15))
  }

  test("GA keeps genomes inside the unit cube") {
    val best = Ga.minimize(u => -u.sum, d = 4, rng = new Random(10), popSize = 20, generations = 30)
    assert(best.forall(v => v >= 0.0 && v <= 1.0))
    // maximizing the sum → best should push toward 1
    assert(best.sum > 3.5)
  }

  test("GA elitism never loses the best individual") {
    def f(u: Array[Double]) = math.abs(u(0) - 0.25)
    val short = Ga.minimize(f, 1, new Random(11), popSize = 10, generations = 5)
    val long = Ga.minimize(f, 1, new Random(11), popSize = 10, generations = 50)
    assert(f(long) <= f(short) + 1e-12)
  }
}

/** The tree and GBRT builders as they were before per-fit presorting: every
  * node re-sorts its members per feature. Kept verbatim as the reference the
  * presorted builder must match bit for bit.
  */
private object PerNodeSortReference {
  import RegressionTree.{Leaf, Node, Split}

  final class Tree(root: Node, nFeatures: Int) {
    def predict(x: Array[Double]): Double = walk(root, x)
    def featureImportance: Array[Double] = {
      val imp = new Array[Double](nFeatures)
      def rec(n: Node): Unit = n match {
        case Split(f, _, gain, l, r) => imp(f) += gain; rec(l); rec(r)
        case _ => ()
      }
      rec(root)
      imp
    }
  }

  final class Boosted(trees: Seq[Tree], base: Double, learningRate: Double, nFeatures: Int) {
    def predict(x: Array[Double]): Double =
      base + trees.iterator.map(_.predict(x)).sum * learningRate
    def featureImportance: Array[Double] = {
      val imp = new Array[Double](nFeatures)
      trees.foreach { t =>
        val ti = t.featureImportance
        var i = 0
        while (i < nFeatures) { imp(i) += ti(i); i += 1 }
      }
      val tot = imp.sum
      if (tot <= 0) imp else imp.map(_ / tot)
    }
  }

  @annotation.tailrec
  private def walk(n: Node, x: Array[Double]): Double = n match {
    case Leaf(v) => v
    case Split(f, t, _, l, r) => if (x(f) <= t) walk(l, x) else walk(r, x)
  }

  def fitTree(x: Seq[Array[Double]], y: Seq[Double], maxDepth: Int, minSamplesLeaf: Int): Tree = {
    val xa = x.toArray; val ya = y.toArray
    new Tree(build(xa.indices.toArray, xa, ya, maxDepth, minSamplesLeaf), xa.head.length)
  }

  def fitGbrt(x: Seq[Array[Double]], y: Seq[Double], nTrees: Int, maxDepth: Int, learningRate: Double,
              minSamplesLeaf: Int): Boosted = {
    val base = y.sum / y.size
    val residual = y.map(_ - base).toArray
    val trees = scala.collection.mutable.ArrayBuffer.empty[Tree]
    var m = 0
    while (m < nTrees) {
      val t = fitTree(x, residual.toSeq, maxDepth, minSamplesLeaf)
      var i = 0
      while (i < residual.length) { residual(i) -= learningRate * t.predict(x(i)); i += 1 }
      trees += t
      m += 1
    }
    new Boosted(trees.toSeq, base, learningRate, x.head.length)
  }

  private def build(idx: Array[Int], x: Array[Array[Double]], y: Array[Double],
                    depth: Int, minLeaf: Int): Node = {
    val meanY = idx.map(y).sum / idx.length
    if (depth == 0 || idx.length < 2 * minLeaf) return Leaf(meanY)
    val sse = idx.map(i => (y(i) - meanY) * (y(i) - meanY)).sum
    if (sse < 1e-12) return Leaf(meanY)

    var bestGain = 0.0
    var bestF = -1
    var bestT = 0.0
    val d = x(idx(0)).length
    var f = 0
    while (f < d) {
      val sorted = idx.sortBy(i => x(i)(f))
      var leftSum = 0.0; var leftSq = 0.0
      val totSum = sorted.map(y).sum
      val totSq = sorted.map(i => y(i) * y(i)).sum
      var k = 0
      while (k < sorted.length - 1) {
        val i = sorted(k)
        leftSum += y(i); leftSq += y(i) * y(i)
        val nl = k + 1; val nr = sorted.length - nl
        val xk = x(i)(f); val xk1 = x(sorted(k + 1))(f)
        if (xk < xk1 && nl >= minLeaf && nr >= minLeaf) {
          val rightSum = totSum - leftSum; val rightSq = totSq - leftSq
          val sseL = leftSq - leftSum * leftSum / nl
          val sseR = rightSq - rightSum * rightSum / nr
          val gain = sse - sseL - sseR
          if (gain > bestGain) { bestGain = gain; bestF = f; bestT = (xk + xk1) / 2.0 }
        }
        k += 1
      }
      f += 1
    }
    if (bestF < 0) Leaf(meanY)
    else {
      val (li, ri) = idx.partition(i => x(i)(bestF) <= bestT)
      Split(bestF, bestT, bestGain,
        build(li, x, y, depth - 1, minLeaf),
        build(ri, x, y, depth - 1, minLeaf))
    }
  }
}
