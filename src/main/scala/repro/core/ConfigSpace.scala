package repro.core

import repro.gp.Lhs
import scala.util.Random

/** A concrete configuration: parameter name → numeric value (booleans 0/1). */
final case class ConfigValues(values: Map[String, Double]) {
  def apply(name: String): Double =
    values.getOrElse(name, throw new NoSuchElementException(s"no value for $name"))
  def get(name: String): Option[Double] = values.get(name)
  def bool(name: String): Boolean = apply(name) >= 0.5
  def int(name: String): Int = math.round(apply(name)).toInt
  def updated(name: String, v: Double): ConfigValues = ConfigValues(values.updated(name, v))
}

/** The search space over a subset of Table 2 parameters on one cluster.
  *
  * Provides the [0,1]^k encoding used by every tuner (GP inputs, GA genomes,
  * RL actions), plus random / LHS sampling and the Spark-default point.
  *
  * A space cut by `subspace` holds every dropped parameter at a fixed value,
  * so `decode`, `random` and `defaults` always return the complete
  * configuration that runs; only the kept `params` are encoded and searched.
  *
  * @param params   the tunable parameters, in a fixed order
  * @param useRangeA true → ARM ranges (Table 2 "Range A"), false → x86 ("Range B")
  * @param fixed    values of the parameters a `subspace` cut dropped
  */
final class ConfigSpace private (val params: Seq[ConfigParam], val useRangeA: Boolean,
                                 fixed: Map[String, Double]) {
  require(params.nonEmpty, "empty config space")
  val dim: Int = params.size
  val names: Seq[String] = params.map(_.name)

  def range(p: ConfigParam): (Double, Double) = if (useRangeA) p.rangeA else p.rangeB

  /** Map a unit vector to concrete values (ints rounded, bools thresholded). */
  def decode(u: Array[Double]): ConfigValues = {
    require(u.length == dim, s"expected $dim coords, got ${u.length}")
    val kv = params.zipWithIndex.map { case (p, i) =>
      val x = math.min(1.0, math.max(0.0, u(i)))
      val (lo, hi) = range(p)
      val v = p.kind match {
        case ParamKind.BoolK   => if (x >= 0.5) 1.0 else 0.0
        case ParamKind.IntK    => math.round(lo + x * (hi - lo)).toDouble
        case ParamKind.DoubleK => lo + x * (hi - lo)
      }
      p.name -> v
    }
    ConfigValues(fixed ++ kv)
  }

  /** Inverse of decode (bools map to 0/1 exactly; ints to their grid point). */
  def encode(c: ConfigValues): Array[Double] = {
    params.map { p =>
      val (lo, hi) = range(p)
      p.kind match {
        case ParamKind.BoolK => if (c.bool(p.name)) 1.0 else 0.0
        case _               => math.min(1.0, math.max(0.0, (c(p.name) - lo) / (hi - lo)))
      }
    }.toArray
  }

  def randomUnit(rng: Random): Array[Double] = Array.fill(dim)(rng.nextDouble())
  def random(rng: Random): ConfigValues = decode(randomUnit(rng))
  def lhsUnit(n: Int, rng: Random): Seq[Array[Double]] = Lhs.sample(n, dim, rng)

  /** The Spark-default configuration, clamped into the cluster's ranges.
    * `spark.default.parallelism` (default "#", cluster dependent) is clamped
    * to the range lower bound.
    */
  def defaults: ConfigValues = ConfigValues(
    fixed ++ params.map { p =>
      val (lo, hi) = range(p)
      p.name -> math.min(hi, math.max(lo, if (p.default < 0) lo else p.default))
    }
  )

  /** Restrict the search to the named parameters and hold every other one at
    * its value in `at` (LOCAT holds non-important parameters at its pinned
    * base, Tuneful at the defaults). Parameters this space already holds
    * fixed keep their values.
    */
  def subspace(keep: Seq[String], at: ConfigValues): ConfigSpace = {
    val keepSet = keep.toSet
    val (sub, dropped) = params.partition(p => keepSet(p.name))
    require(sub.nonEmpty, "subspace would be empty")
    new ConfigSpace(sub, useRangeA, fixed ++ dropped.map(p => p.name -> at(p.name)))
  }
}

object ConfigSpace {
  def apply(params: Seq[ConfigParam], useRangeA: Boolean): ConfigSpace =
    new ConfigSpace(params, useRangeA, Map.empty)

  /** Full 38-parameter space for a cluster (`arm = true` → Range A). */
  def full(arm: Boolean): ConfigSpace = ConfigSpace(ConfigParam.all, useRangeA = arm)
}
