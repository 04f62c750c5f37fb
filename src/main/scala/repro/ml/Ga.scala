package repro.ml

import scala.util.Random

/** Genetic algorithm over unit-hypercube genomes — DAC's search procedure
  * (DAC builds GBRT performance models and searches them with a GA).
  *
  * Minimizes `fitness`. Tournament selection, uniform crossover (probability
  * 0.9), Gaussian mutation (probability 0.15 per gene, sd 0.12), elitism of 1.
  */
object Ga {
  /** The fittest genome of the last generation. */
  def minimize(fitness: Array[Double] => Double, d: Int, rng: Random, popSize: Int, generations: Int): Array[Double] = {
    require(d >= 1 && popSize >= 4, "ga needs d>=1, popSize>=4")
    var pop = Array.fill(popSize)(Array.fill(d)(rng.nextDouble()))
    var fit = pop.map(fitness)

    def tournament(): Array[Double] = {
      val a = rng.nextInt(popSize); val b = rng.nextInt(popSize)
      if (fit(a) <= fit(b)) pop(a) else pop(b)
    }

    var g = 0
    while (g < generations) {
      val eliteIdx = fit.indices.minBy(fit)
      val next = scala.collection.mutable.ArrayBuffer[Array[Double]](pop(eliteIdx).clone())
      while (next.size < popSize) {
        val p1 = tournament(); val p2 = tournament()
        val child =
          if (rng.nextDouble() < 0.9)
            Array.tabulate(d)(i => if (rng.nextBoolean()) p1(i) else p2(i))
          else p1.clone()
        var i = 0
        while (i < d) {
          if (rng.nextDouble() < 0.15)
            child(i) = math.min(1.0, math.max(0.0, child(i) + rng.nextGaussian() * 0.12))
          i += 1
        }
        next += child
      }
      pop = next.toArray
      fit = pop.map(fitness)
      g += 1
    }
    pop(fit.indices.minBy(fit))
  }
}
