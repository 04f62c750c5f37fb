package repro.stats

import org.scalatest.funsuite.AnyFunSuite

class RngSpec extends AnyFunSuite {

  test("Rng draws the same sequence as java.util.Random, method by method") {
    for (seed <- Seq(0L, -1L, 1L, 42L, 1000003L * 7919L, Long.MinValue, Long.MaxValue)) {
      val (got, want) = (Rng(seed), new scala.util.Random(new java.util.Random(seed)))
      // interleaved, so a cached second Gaussian must line up too
      for (k <- 0 until 2000) {
        val what = s"seed $seed draw $k"
        k % 8 match {
          case 0 => assert(got.nextDouble() == want.nextDouble(), what)
          case 1 => assert(got.nextGaussian() == want.nextGaussian(), what)
          case 2 => assert(got.nextInt(64) == want.nextInt(64), what)
          case 3 => assert(got.nextInt(1000003) == want.nextInt(1000003), what)
          case 4 => assert(got.nextLong() == want.nextLong(), what)
          case 5 => assert(got.nextBoolean() == want.nextBoolean(), what)
          case 6 => assert(got.nextInt() == want.nextInt(), what)
          case _ => assert(got.shuffle((0 until 37).toVector) == want.shuffle((0 until 37).toVector), what)
        }
      }
      assert(got.nextGaussian() == want.nextGaussian())
      got.setSeed(seed + 1); want.setSeed(seed + 1)
      assert(got.nextGaussian() == want.nextGaussian())
      assert(got.nextDouble() == want.nextDouble())
    }
  }
}
