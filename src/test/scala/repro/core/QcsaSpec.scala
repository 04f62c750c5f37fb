package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class QcsaSpec extends AnyFunSuite {

  test("constant-time queries are insensitive, wildly-varying ones sensitive") {
    val rng = new Random(1)
    val execs = (0 until 30).map { _ =>
      Map(
        "flat" -> 10.0,
        "mild" -> (10.0 + rng.nextGaussian() * 0.2),
        "wild" -> (10.0 + rng.nextDouble() * 100.0),
      )
    }
    val r = Qcsa.analyze(execs, Seq("flat", "mild", "wild"))
    assert(r.sensitive == Seq("wild"))
    assert(r.insensitive.toSet == Set("flat", "mild"))
  }

  test("CV values match Stats.cv per query") {
    val execs = Seq(Map("a" -> 1.0, "b" -> 4.0), Map("a" -> 3.0, "b" -> 4.0))
    val r = Qcsa.analyze(execs, Seq("a", "b"))
    assert(math.abs(r.cvs("a") - 0.5) < 1e-12) // sd=1, mean=2
    assert(r.cvs("b") == 0.0)
  }

  test("threshold is min + (max-min)/3") {
    val execs = Seq(
      Map("a" -> 1.0, "b" -> 1.0, "c" -> 1.0),
      Map("a" -> 1.0, "b" -> 2.0, "c" -> 5.0))
    val r = Qcsa.analyze(execs, Seq("a", "b", "c"))
    val expected = r.cvs.values.min + (r.cvs.values.max - r.cvs.values.min) / 3.0
    assert(math.abs(r.threshold - expected) < 1e-12)
  }

  test("single-query application is never emptied") {
    val execs = Seq(Map("only" -> 5.0), Map("only" -> 5.1), Map("only" -> 4.9))
    val r = Qcsa.analyze(execs, Seq("only"))
    assert(r.sensitive == Seq("only"))
    assert(r.insensitive.isEmpty)
  }

  test("all-identical CVs keep every query (degenerate range)") {
    val execs = Seq(Map("a" -> 1.0, "b" -> 2.0), Map("a" -> 2.0, "b" -> 4.0))
    val r = Qcsa.analyze(execs, Seq("a", "b")) // both CV = 1/3
    assert(r.sensitive == Seq("a", "b"))
  }

  test("RQA preserves original query order") {
    val rng = new Random(2)
    val execs = (0 until 20).map { _ =>
      Map("q3" -> rng.nextDouble() * 100, "q1" -> rng.nextDouble() * 100,
          "q2" -> 5.0, "q4" -> rng.nextDouble() * 100)
    }
    val r = Qcsa.analyze(execs, Seq("q1", "q2", "q3", "q4"))
    assert(r.sensitive == r.sensitive.sortBy(Seq("q1", "q2", "q3", "q4").indexOf(_: String)))
  }

  test("rejects fewer than 2 executions and missing queries") {
    intercept[IllegalArgumentException] { Qcsa.analyze(Seq(Map("a" -> 1.0)), Seq("a")) }
    intercept[IllegalArgumentException] {
      Qcsa.analyze(Seq(Map("a" -> 1.0), Map.empty[String, Double]), Seq("a"))
    }
  }

  test("higher spread ⇒ higher CV ordering is preserved") {
    val rng = new Random(3)
    val execs = (0 until 50).map { _ =>
      Map("low" -> (100.0 + rng.nextGaussian()),
          "mid" -> (100.0 + rng.nextGaussian() * 10),
          "high" -> (100.0 + rng.nextGaussian() * 40))
    }
    val r = Qcsa.analyze(execs, Seq("low", "mid", "high"))
    assert(r.cvs("low") < r.cvs("mid") && r.cvs("mid") < r.cvs("high"))
  }
}
