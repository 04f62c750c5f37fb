package repro.cluster

/** Operator category of a query — the paper's taxonomy (§5.11, after
  * Pavlo et al.): selection-only queries are configuration-insensitive;
  * join/aggregation queries with large shuffles are sensitive.
  */
sealed trait QueryCategory
object QueryCategory {
  case object Selection   extends QueryCategory
  case object Join        extends QueryCategory
  case object Aggregation extends QueryCategory
}

/** Execution characteristics of one query, per GB of application input.
  *
  * These drive the simulator's analytic time model. Values are calibrated to
  * the per-query facts the paper states (see Workloads).
  *
  * @param cpuSecPerGB     parallelizable CPU work (seconds·core per input GB)
  * @param scanGBPerGB     bytes actually read per input GB (column/partition pruning)
  * @param shuffleGBPerGB  shuffle volume per input GB (Q72: 0.52; Q08: 5e-5)
  * @param dimTableMB      size of a broadcastable dimension table (0 = none);
  *                        broadcast fires when autoBroadcastJoinThreshold ≥ this
  * @param memGBPerGB      JVM working set per input GB (drives GC pressure)
  * @param serialSec       fixed serial work + per-query job setup, seconds
  * @param maxUsefulPar    parallelism beyond which extra slots do not help
  *                        (paper: selection queries peak at ~5 cores)
  */
final case class QueryProfile(
    id: String,
    category: QueryCategory,
    cpuSecPerGB: Double,
    scanGBPerGB: Double,
    shuffleGBPerGB: Double,
    dimTableMB: Double,
    memGBPerGB: Double,
    serialSec: Double,
    maxUsefulPar: Int,
)

/** A named application: an ordered list of query profiles. */
final case class SimWorkload(name: String, profiles: Seq[QueryProfile]) {
  val queryIds: Seq[String] = profiles.map(_.id)
  private val byId = profiles.map(q => q.id -> q).toMap
  def profile(id: String): QueryProfile =
    byId.getOrElse(id, throw new NoSuchElementException(s"no query $id in $name"))
}
