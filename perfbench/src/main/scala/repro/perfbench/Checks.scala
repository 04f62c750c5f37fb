package repro.perfbench

import repro.core.{ConfigSpace, ParamKind, TuningResult}

/** Correctness checks applied to every tuning call. Each check counts one
  * operation in the tally; a failed check counts as a failed operation.
  *
  * `inject` deliberately corrupts what is checked ("out-of-range" moves the
  * best configuration outside its space, "wrong-result" misreports the cost
  * or the query rows), so the benchmark's own tests can show that the checks
  * fire. Benchmark runs never set it.
  */
final class Checks(tally: Tally, inject: Option[String]) {

  private def injected(mode: String): Boolean = inject.contains(mode)

  /** The best configuration lies inside the space and is one of the trials. */
  def bestConf(label: String, space: ConfigSpace, r: TuningResult): Unit = {
    val best =
      if (injected("out-of-range")) {
        val p = space.params.head
        r.bestConf.updated(p.name, space.range(p)._2 + 1.0)
      } else r.bestConf
    val outside = space.params.filterNot { p =>
      val (lo, hi) = space.range(p)
      best.get(p.name).exists { v =>
        if (p.kind == ParamKind.BoolK) v == 0.0 || v == 1.0 else v >= lo && v <= hi
      }
    }.map(_.name)
    tally.check(outside.isEmpty, s"$label: best configuration outside its ranges: ${outside.mkString(", ")}")
    tally.check(r.trials.exists(_.conf == best), s"$label: best configuration is not among the trials")
  }

  /** What a call reports as its optimization cost, after any injection. */
  def reportedCost(r: TuningResult): Double =
    if (injected("wrong-result")) r.optimizationSeconds + 1.0 else r.optimizationSeconds

  /** One-shot call: the trial costs sum to the reported optimization time. */
  def oneShotCost(label: String, r: TuningResult): Unit =
    costsAgree(label, r.trials.map(_.costSeconds).sum, reportedCost(r))

  def costsAgree(label: String, expected: Double, reported: Double): Unit =
    tally.check(math.abs(expected - reported) <= 1e-9 * math.max(1.0, math.abs(expected)),
      f"$label: costs sum to $expected%.6f s but $reported%.6f s is reported")

  /** Rows of two executions of one query are identical after canonicalization. */
  def sameRows(label: String, expected: Seq[String], got: Seq[String]): Unit = {
    val seen = if (injected("wrong-result")) got :+ "injected-row" else got
    tally.check(seen == expected,
      s"$label: ${seen.size} rows differ from the ${expected.size} rows under the defaults")
  }
}

object Checks {
  /** Canonical text of a result row set: cells rendered with doubles at six
    * decimals, rows sorted, so row order and summation order do not matter.
    */
  def canonical(rows: Seq[org.apache.spark.sql.Row]): Seq[String] =
    rows.map(_.toSeq.map {
      case null => "null"
      case d: Double => f"$d%.6f"
      case f: Float => f"${f.toDouble}%.6f"
      case b: java.math.BigDecimal => f"${b.doubleValue}%.6f"
      case x => x.toString
    }.mkString("|")).sorted
}
