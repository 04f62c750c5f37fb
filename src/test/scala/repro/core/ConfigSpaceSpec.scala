package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ConfigSpaceSpec extends AnyFunSuite {

  private val arm = ConfigSpace.full(arm = true)
  private val x86 = ConfigSpace.full(arm = false)

  test("Table 2 has 38 parameters: 27 numeric + 11 boolean") {
    assert(ConfigParam.all.size == 38)
    assert(ConfigParam.all.count(_.isBool) == 11)
    assert(ConfigParam.all.count(!_.isBool) == 27)
  }

  test("resource parameters are the six starred ones of Table 2") {
    val starred = ConfigParam.all.filter(_.resource).map(_.name).toSet
    assert(starred == Set(
      "spark.driver.cores", "spark.driver.memory", "spark.executor.cores",
      "spark.executor.memory", "spark.executor.memoryOverhead", "spark.memory.offHeap.size"))
  }

  test("ARM and x86 ranges differ exactly where Table 2 says") {
    val differing = ConfigParam.all.filter(p => p.rangeA != p.rangeB).map(_.name).toSet
    assert(differing == Set(
      "spark.driver.cores", "spark.driver.memory", "spark.executor.cores",
      "spark.executor.instances", "spark.executor.memory",
      "spark.executor.memoryOverhead", "spark.memory.offHeap.size"))
  }

  test("decode respects ranges for every parameter (both clusters, 50 samples)") {
    val rng = new Random(1)
    for (space <- Seq(arm, x86); _ <- 0 until 50) {
      val c = space.random(rng)
      space.params.foreach { p =>
        val (lo, hi) = space.range(p)
        val v = c(p.name)
        assert(v >= lo - 1e-9 && v <= hi + 1e-9, s"${p.name}=$v outside [$lo,$hi]")
        if (p.kind == ParamKind.IntK) assert(v == math.round(v).toDouble, s"${p.name} not integral")
        if (p.isBool) assert(v == 0.0 || v == 1.0)
      }
    }
  }

  test("encode∘decode is identity on the decoded grid") {
    val rng = new Random(2)
    for (_ <- 0 until 30) {
      val u = arm.randomUnit(rng)
      val c = arm.decode(u)
      val c2 = arm.decode(arm.encode(c))
      assert(c2.values == c.values)
    }
  }

  test("decode clamps out-of-range unit coordinates") {
    val u = Array.fill(arm.dim)(1.7)
    val c = arm.decode(u)
    arm.params.foreach { p =>
      val (_, hi) = arm.range(p)
      assert(c(p.name) <= hi)
    }
  }

  test("defaults are inside the cluster ranges and clamp cluster-dependent '#'") {
    for (space <- Seq(arm, x86)) {
      val d = space.defaults
      space.params.foreach { p =>
        val (lo, hi) = space.range(p)
        assert(d(p.name) >= lo && d(p.name) <= hi, p.name)
      }
      // spark.default.parallelism default "#" clamps to lower bound 100
      assert(d("spark.default.parallelism") == 100.0)
      // executor.instances Spark default 2 is below both ranges → clamps to lo
      assert(d("spark.executor.instances") == (if (space.useRangeA) 48.0 else 9.0))
    }
  }

  test("lhs sampling produces valid distinct configurations") {
    val cs = arm.lhsUnit(10, new Random(3)).map(arm.decode)
    assert(cs.size == 10)
    assert(cs.distinct.size > 1)
  }

  test("subspace keeps only the requested parameters and rejects empty") {
    val sub = arm.subspace(Seq("spark.executor.memory", "spark.sql.shuffle.partitions"), arm.defaults)
    assert(sub.dim == 2)
    assert(sub.names.toSet == Set("spark.executor.memory", "spark.sql.shuffle.partitions"))
    intercept[IllegalArgumentException] { arm.subspace(Seq("no.such.param"), arm.defaults) }
  }

  test("a subspace's decode, random and defaults hold every parameter, the dropped ones at `at`") {
    val rng = new Random(4)
    val at = arm.random(rng)
    val kept = Seq("spark.executor.memory", "spark.sql.shuffle.partitions", "spark.rdd.compress")
    val sub = arm.subspace(kept, at)
    val confs = Seq(sub.decode(sub.randomUnit(rng)), sub.random(rng), sub.defaults)
    confs.foreach { c =>
      assert(c.values.keySet == arm.names.toSet)
      arm.names.filterNot(kept.contains).foreach(n => assert(c(n) == at(n), n))
    }
    kept.foreach(n => assert(sub.defaults(n) == arm.defaults(n), n))
  }

  test("a subspace of a subspace keeps the outer fixed values") {
    val rng = new Random(5)
    val outerAt = arm.random(rng)
    val outer = arm.subspace(Seq("spark.executor.memory", "spark.executor.cores", "spark.sql.shuffle.partitions"), outerAt)
    // a full configuration that disagrees with outerAt almost everywhere
    val innerAt = arm.random(rng)
    val inner = outer.subspace(Seq("spark.executor.memory"), innerAt)
    assert(inner.names == Seq("spark.executor.memory"))
    for (c <- Seq(inner.decode(Array(0.3)), inner.random(rng), inner.defaults)) {
      assert(c.values.keySet == arm.names.toSet)
      Seq("spark.executor.cores", "spark.sql.shuffle.partitions").foreach(n => assert(c(n) == innerAt(n), n))
      arm.names.filterNot(outer.names.contains).foreach(n => assert(c(n) == outerAt(n), n))
    }
  }

  test("ConfigValues accessors: int, bool, updated, missing key") {
    val c = ConfigValues(Map("a" -> 3.6, "b" -> 1.0))
    assert(c.int("a") == 4)
    assert(c.bool("b"))
    assert(c.updated("a", 1.0)("a") == 1.0)
    intercept[NoSuchElementException] { c("zzz") }
  }

  test("x86 executor.instances range is 9-112 (Range B) and ARM 48-384 (Range A)") {
    val p = ConfigParam.all.find(_.name == "spark.executor.instances").get
    assert(p.rangeA == (48.0, 384.0))
    assert(p.rangeB == (9.0, 112.0))
  }
}
