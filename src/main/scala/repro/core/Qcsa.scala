package repro.core

import repro.stats.Stats

/** Query Configuration Sensitivity Analysis (paper §3.2).
  *
  * Given per-query execution times of `N_QCSA` runs of the application under
  * different random configurations, compute each query's Coefficient of
  * Variation (eq. 3), split the CV range into three equal partitions (eq. 4),
  * and classify queries in the bottom partition as configuration-insensitive
  * (CIQ). The configuration-sensitive queries (CSQ) form the Reduced Query
  * Application (RQA) executed in later BO iterations.
  */
object Qcsa {

  /** @param cvs        CV per query id
    * @param threshold  CIQ/CSQ boundary: min(CV) + (max(CV) − min(CV)) / 3
    * @param sensitive  CSQs, in the application's original query order: the RQA
    * @param insensitive CIQs removed from sample collection
    */
  final case class Result(
      cvs: Map[String, Double],
      threshold: Double,
      sensitive: Seq[String],
      insensitive: Seq[String],
  )

  /** @param executions per-query times of each run, all runs covering the
    *                   same query set; `queryOrder` fixes RQA ordering.
    */
  def analyze(executions: Seq[Map[String, Double]], queryOrder: Seq[String]): Result = {
    require(executions.size >= 2, s"QCSA needs >=2 executions, got ${executions.size}")
    queryOrder.foreach { q =>
      require(executions.forall(_.contains(q)), s"query $q missing from some execution")
    }
    val cvs = queryOrder.map { q => q -> Stats.cv(executions.map(_(q))) }.toMap
    val cvMin = cvs.values.min
    val cvMax = cvs.values.max
    val width = (cvMax - cvMin) / 3.0
    val threshold = cvMin + width
    // Strict '<' keeps every query of a single-query application (cv == min ==
    // threshold when the range is degenerate), so the RQA is never empty.
    val (ciq, csq) = queryOrder.partition(q => cvs(q) < threshold)
    Result(cvs, threshold, csq, ciq)
  }
}
