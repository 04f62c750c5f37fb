package repro.stats

import org.scalatest.funsuite.AnyFunSuite
import repro.cluster.{ClusterProfile, SparkClusterSimulator, Workloads}
import repro.core.{ConfigSpace, Iicp}
import repro.linalg.Mat
import scala.util.Random

class KpcaSpec extends AnyFunSuite {

  private def ringData(n: Int, rng: Random): Seq[Array[Double]] =
    // two concentric rings — linearly inseparable, the classic KPCA case
    (0 until n).map { i =>
      val r = if (i % 2 == 0) 1.0 else 3.0
      val a = rng.nextDouble() * 2 * math.Pi
      Array(r * math.cos(a) + rng.nextGaussian() * 0.05,
            r * math.sin(a) + rng.nextGaussian() * 0.05)
    }

  test("gaussian kernel is 1 at zero distance and decays") {
    val k = KpcaKernel.Gaussian(1.0)
    val x = Array(0.0, 0.0)
    assert(math.abs(k(x, x) - 1.0) < 1e-12)
    assert(k(x, Array(1.0, 0.0)) > k(x, Array(2.0, 0.0)))
  }

  test("polynomial kernel matches closed form") {
    val k = KpcaKernel.Polynomial
    assert(k(Array(1.0, 2.0), Array(3.0, 4.0)) == 144.0) // (11+1)^2
  }

  test("perceptron kernel is negative distance") {
    assert(KpcaKernel.Perceptron(Array(0.0, 0.0), Array(3.0, 4.0)) == -5.0)
  }

  test("medianSigma is positive on distinct points, 1 on identical") {
    val rng = new Random(1)
    val xs = Seq.fill(10)(Array(rng.nextDouble(), rng.nextDouble()))
    assert(KpcaKernel.medianSigma(xs) > 0)
    assert(KpcaKernel.medianSigma(Seq(Array(1.0), Array(1.0))) == 1.0)
  }

  test("kpca requires at least 3 samples") {
    intercept[IllegalArgumentException] {
      Kpca.fit(Seq(Array(1.0), Array(2.0)), KpcaKernel.Gaussian(1.0), 0.85, 10)
    }
  }

  test("kpca extracts at most maxComponents") {
    val rng = new Random(2)
    val xs = Seq.fill(30)(Array.fill(8)(rng.nextDouble()))
    val k = Kpca.fit(xs, KpcaKernel.Gaussian(1.0), varianceToKeep = 0.999, maxComponents = 4)
    assert(k.nComponents <= 4 && k.nComponents >= 1)
  }

  test("kpca transform dimensionality equals nComponents") {
    val rng = new Random(3)
    val xs = Seq.fill(20)(Array.fill(5)(rng.nextDouble()))
    val k = Kpca.fit(xs, KpcaKernel.Gaussian(1.0), 0.85, 10)
    assert(k.transform(Array.fill(5)(0.5)).length == k.nComponents)
  }

  test("first gaussian-KPCA component separates concentric rings (linear PCA cannot)") {
    val rng = new Random(4)
    val xs = ringData(80, rng)
    val k = Kpca.fit(xs, KpcaKernel.Gaussian(1.0), varianceToKeep = 0.95, maxComponents = 2)
    val proj = xs.map(x => k.transform(x)(0))
    val inner = proj.zipWithIndex.collect { case (p, i) if i % 2 == 0 => p }
    val outer = proj.zipWithIndex.collect { case (p, i) if i % 2 == 1 => p }
    // the two rings must be (almost) separated by the first extracted feature
    val sep = if (Stats.mean(inner) < Stats.mean(outer))
      inner.count(_ < Stats.mean(proj)) + outer.count(_ > Stats.mean(proj))
    else
      inner.count(_ > Stats.mean(proj)) + outer.count(_ < Stats.mean(proj))
    assert(sep >= 72, s"only $sep/80 separated") // ≥90% separation
  }

  test("training-point projections have near-zero mean (double centering)") {
    val rng = new Random(5)
    val xs = Seq.fill(25)(Array.fill(4)(rng.nextDouble()))
    val k = Kpca.fit(xs, KpcaKernel.Gaussian(0.8), 0.85, 10)
    (0 until k.nComponents).foreach { c =>
      val m = Stats.mean(xs.map(x => k.transform(x)(c)))
      assert(math.abs(m) < 1e-6, s"component $c mean=$m")
    }
  }

  test("kpca works with polynomial and perceptron kernels too") {
    val rng = new Random(7)
    val xs = Seq.fill(15)(Array.fill(3)(rng.nextDouble()))
    Seq(KpcaKernel.Polynomial, KpcaKernel.Perceptron).foreach { kern =>
      val k = Kpca.fit(xs, kern, 0.85, 10)
      assert(k.transform(xs.head).length == k.nComponents)
      assert(k.nComponents >= 1)
    }
  }

  // --- shared Mat.sqDist / Mat.symmetric == the per-module loops, bit for bit ----

  /** Squared distance as KPCA summed it in its own loop: coordinates ascending. */
  private def refSqDist(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < x.length) { val d = x(i) - y(i); s += d * d; i += 1 }
    s
  }

  private def refKernel(k: KpcaKernel): (Array[Double], Array[Double]) => Double = k match {
    case KpcaKernel.Gaussian(sigma) => (x, y) => math.exp(-refSqDist(x, y) / (2.0 * sigma * sigma))
    case KpcaKernel.Perceptron => (x, y) => -math.sqrt(refSqDist(x, y))
    case KpcaKernel.Polynomial => KpcaKernel.Polynomial.apply
  }

  private def refMedianSigma(xs: Seq[Array[Double]]): Double = {
    val ds = for {
      i <- xs.indices; j <- (i + 1) until xs.size
    } yield math.sqrt(refSqDist(xs(i), xs(j)))
    val pos = ds.filter(_ > 0).sorted
    if (pos.isEmpty) 1.0 else pos(pos.size / 2)
  }

  /** KPCA fitted with its own kernel-matrix loop, returned as its transform. */
  private def refKpca(xs: Seq[Array[Double]], kernel: KpcaKernel, varianceToKeep: Double,
                      maxComponents: Int): Array[Double] => Array[Double] = {
    val kern = refKernel(kernel)
    val n = xs.size
    val train = xs.toArray
    val k = Mat.zeros(n, n)
    for (i <- 0 until n; j <- i until n) {
      val v = kern(train(i), train(j))
      k(i, j) = v; k(j, i) = v
    }
    val rowMeans = Array.tabulate(n)(i => (0 until n).map(j => k(i, j)).sum / n)
    val totalMean = rowMeans.sum / n
    val kc = Mat.zeros(n, n)
    for (i <- 0 until n; j <- 0 until n) kc(i, j) = k(i, j) - rowMeans(i) - rowMeans(j) + totalMean
    val (vals, vecs) = Mat.eigSym(kc)
    val tot = vals.filter(_ > 1e-10).sum
    val keep = scala.collection.mutable.ArrayBuffer.empty[Int]
    var acc = 0.0
    var i = 0
    while (i < n && keep.size < maxComponents && (acc < varianceToKeep * tot || keep.isEmpty)) {
      if (vals(i) > 1e-10) { keep += i; acc += vals(i) }
      i += 1
    }
    val alphas = keep.map(col => Array.tabulate(n)(r => vecs(r, col) / math.sqrt(vals(col))))
    x => {
      val kx = train.map(t => kern(x, t))
      val kxMean = kx.sum / n
      val centered = Array.tabulate(n)(r => kx(r) - kxMean - rowMeans(r) + totalMean)
      alphas.map { a =>
        var s = 0.0; var r = 0
        while (r < n) { s += a(r) * centered(r); r += 1 }
        s
      }.toArray
    }
  }

  private def bits(v: Seq[Double]): Seq[Long] = v.map(java.lang.Double.doubleToRawLongBits)

  test("KPCA on Fig 6-shaped inputs equals the per-module kernel-matrix loop, bit for bit") {
    // Fig 6: 30 random ARM configurations, encoded in the CPS-kept subspace
    val space = ConfigSpace.full(arm = true)
    val sim = new SparkClusterSimulator(Workloads.tpcds, ClusterProfile.arm, 6)
    val rng = new Random(6)
    val samples = Seq.fill(30) { val c = space.random(rng); (c, sim.run(c, 100.0).totalSeconds) }
    val sub = space.subspace(Iicp.cps(space, samples).map(_._1), space.defaults)
    val xs = samples.map { case (c, _) => sub.encode(c) }
    val probe = xs ++ Seq.fill(20)(sub.randomUnit(rng))
    assert(bits(Seq(KpcaKernel.medianSigma(xs))) == bits(Seq(refMedianSigma(xs))))
    val maxComponents = math.max(3, math.ceil(sub.dim / 3.0).toInt)
    Seq(KpcaKernel.Gaussian(1.0), KpcaKernel.Gaussian(KpcaKernel.medianSigma(xs)), KpcaKernel.Perceptron,
      KpcaKernel.Polynomial).foreach { kernel =>
      val kpca = Kpca.fit(xs, kernel, 0.9, maxComponents)
      val ref = refKpca(xs, kernel, 0.9, maxComponents)
      probe.foreach(x => assert(bits(kpca.transform(x).toSeq) == bits(ref(x).toSeq), kernel.name))
      val ref2 = refKernel(kernel)
      assert(bits(for (a <- probe; b <- probe) yield kernel(a, b)) == bits(for (a <- probe; b <- probe) yield ref2(a, b)))
    }
  }
}
