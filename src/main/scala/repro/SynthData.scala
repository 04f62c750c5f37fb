package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic OLAP data at a configurable scale factor.
  *
  * SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
  * benchmarks use SF~=0.1. Each generator draws from its own fixed seeds, so
  * it is deterministic in sf and the DuckDB oracle sees identical input.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double): DataFrame = {
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    spark.range(n(NLineitemPerSf, sf)).select(
      (rand(0) * nOrders + 1).cast(LongType)           as "l_orderkey",
      (rand(1) * nPart + 1).cast(LongType)             as "l_partkey",
      (rand(2) * 7 + 1).cast(IntegerType)              as "l_linenumber",
      (rand(3) * 50 + 1).cast(DoubleType)              as "l_quantity",
      round(rand(4) * 90000 + 900, 2)                  as "l_extendedprice",
      round(rand(5) * 0.10, 2)                         as "l_discount",
      round(rand(6) * 0.08, 2)                         as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
                 (rand(7) * 3 + 1).cast("int"))        as "l_returnflag",
      element_at(array(lit("O"), lit("F")),
                 (rand(8) * 2 + 1).cast("int"))        as "l_linestatus",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(9) * 2557).cast("int"))           as "l_shipdate",
    )
  }

  def orders(spark: SparkSession, sf: Double): DataFrame = {
    import spark.implicits._
    val nCust = n(NCustomerPerSf, sf)
    spark.range(1, n(NOrdersPerSf, sf) + 1).toDF("o_orderkey").select(
      $"o_orderkey",
      (rand(1) * nCust + 1).cast(LongType)                     as "o_custkey",
      element_at(array(lit("O"), lit("F"), lit("P")),
                 (rand(2) * 3 + 1).cast("int"))                as "o_orderstatus",
      round(rand(3) * 500000 + 1000, 2)                        as "o_totalprice",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(4) * 2406).cast("int"))                   as "o_orderdate",
    )
  }

  def customer(spark: SparkSession, sf: Double): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NCustomerPerSf, sf) + 1).toDF("c_custkey").select(
      $"c_custkey",
      (rand(2) * 25).cast(IntegerType)                   as "c_nationkey",
      round(rand(3) * 10000 - 1000, 2)                   as "c_acctbal",
      element_at(array(lit("BUILDING"), lit("AUTOMOBILE"), lit("MACHINERY"),
                       lit("HOUSEHOLD"), lit("FURNITURE")),
                 (rand(4) * 5 + 1).cast("int"))          as "c_mktsegment",
    )
  }

  def part(spark: SparkSession, sf: Double): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NPartPerSf, sf) + 1).toDF("p_partkey").select(
      $"p_partkey",
      element_at(array(lit("STANDARD"), lit("SMALL"), lit("MEDIUM"),
                       lit("LARGE"), lit("ECONOMY"), lit("PROMO")),
                 (rand(5) * 6 + 1).cast("int"))                 as "p_type",
      (rand(6) * 50 + 1).cast(IntegerType)                      as "p_size",
      round(lit(900.0) + ($"p_partkey" % 1000) / 10.0, 2)       as "p_retailprice",
    )
  }

  // HiBench-style web tables for the Scan/Join/Aggregation SQL benchmarks.
  private val NRankingsPerSf   =   300_000L
  private val NUserVisitsPerSf = 1_000_000L
  private val NSourceIps       = 5_000L

  /** HiBench `rankings(pageurl, pagerank, avgduration)`. */
  def rankings(spark: SparkSession, sf: Double): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NRankingsPerSf, sf) + 1).toDF("rid").select(
      concat(lit("url_"), $"rid".cast(StringType))       as "pageurl",
      (rand(6) * 1000 + 1).cast(IntegerType)             as "pagerank",
      (rand(7) * 300 + 1).cast(IntegerType)              as "avgduration",
    )
  }

  /** HiBench `uservisits(sourceip, desturl, visitdate, adrevenue)`.
    * desturl references rankings.pageurl; sourceip has a small domain so
    * the Aggregation query's group count stays oracle-friendly.
    */
  def uservisits(spark: SparkSession, sf: Double): DataFrame = {
    val nUrl = n(NRankingsPerSf, sf)
    spark.range(n(NUserVisitsPerSf, sf)).select(
      concat(lit("ip_"), (rand(7) * NSourceIps + 1).cast(LongType).cast(StringType))    as "sourceip",
      concat(lit("url_"), (rand(8) * nUrl + 1).cast(LongType).cast(StringType))         as "desturl",
      date_add(lit("1999-01-01").cast(DateType),
               (rand(9) * 2557).cast("int"))                                            as "visitdate",
      round(rand(10) * 100, 2)                                                          as "adrevenue",
    )
  }

  /** The named tables at scale factor `sf`, cached and materialized, so that
    * a timed query reads them from memory.
    */
  def tables(spark: SparkSession, sf: Double, names: Seq[String]): Map[String, DataFrame] = {
    val t = names.distinct.map(name => name -> generators(name)(spark, sf).cache()).toMap
    t.values.foreach(_.count())
    t
  }

  private val generators: Map[String, (SparkSession, Double) => DataFrame] = Map(
    "lineitem" -> lineitem _, "orders" -> orders _, "customer" -> customer _, "part" -> part _,
    "rankings" -> rankings _, "uservisits" -> uservisits _)
}
