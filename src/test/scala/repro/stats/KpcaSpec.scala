package repro.stats

import org.scalatest.funsuite.AnyFunSuite
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
    val k = KpcaKernel.Polynomial(degree = 2, c = 1.0)
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
      Kpca.fit(Seq(Array(1.0), Array(2.0)), KpcaKernel.Gaussian(1.0))
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
    val k = Kpca.fit(xs, KpcaKernel.Gaussian(1.0))
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
    val k = Kpca.fit(xs, KpcaKernel.Gaussian(0.8))
    (0 until k.nComponents).foreach { c =>
      val m = Stats.mean(xs.map(x => k.transform(x)(c)))
      assert(math.abs(m) < 1e-6, s"component $c mean=$m")
    }
  }

  test("kpca works with polynomial and perceptron kernels too") {
    val rng = new Random(7)
    val xs = Seq.fill(15)(Array.fill(3)(rng.nextDouble()))
    Seq(KpcaKernel.Polynomial(2, 1.0), KpcaKernel.Perceptron).foreach { kern =>
      val k = Kpca.fit(xs, kern)
      assert(k.transform(xs.head).length == k.nComponents)
      assert(k.nComponents >= 1)
    }
  }
}
