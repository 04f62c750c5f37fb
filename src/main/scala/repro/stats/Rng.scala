package repro.stats

/** The seeded generator every tuner and the simulator draw from. */
object Rng {
  /** A `scala.util.Random` that draws exactly the sequence `new Random(seed)`
    * draws (every `java.util.Random` method goes through `next(bits)`), but
    * holds the seed in a plain field instead of an `AtomicLong`. Not
    * thread-safe: each caller owns its generator.
    */
  def apply(seed: Long): scala.util.Random = new scala.util.Random(new Lcg(seed))

  // the linear congruential generator of java.util.Random's Javadoc
  private val Multiplier = 0x5DEECE66DL
  private val Addend = 0xBL
  private val Mask = (1L << 48) - 1

  private final class Lcg(seed0: Long) extends java.util.Random(seed0) {
    // No initializer: java.util.Random's constructor calls setSeed before
    // this class's fields are initialized, and an initializer would then
    // overwrite the seed it set.
    private var s: Long = _

    // super.setSeed also resets the cached second Gaussian
    override def setSeed(seed: Long): Unit = { super.setSeed(seed); s = (seed ^ Multiplier) & Mask }

    override protected def next(bits: Int): Int = {
      s = (s * Multiplier + Addend) & Mask
      (s >>> (48 - bits)).toInt
    }
  }
}
