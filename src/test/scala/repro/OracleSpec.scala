package repro

import java.sql.Date
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._

/** The DuckDB oracle itself: typed tables, NULL handling, the row sort, and
  * that it still rejects every kind of difference.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  /** Runs `sql` on Spark over `tables` registered as views, then checks it
    * against DuckDB over the same tables.
    */
  private def check(sql: String, tables: (String, DataFrame)*): Unit = {
    tables.foreach { case (name, df) => df.createOrReplaceTempView(name) }
    Oracle.assertEquivalent(spark.sql(sql), sql, tables: _*)
  }

  private def mismatch(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): String =
    intercept[IllegalArgumentException](Oracle.assertEquivalent(sparkDf, sql, tables: _*)).getMessage

  test("an INT column aggregates as a number, not as text") {
    // as VARCHAR, MAX would be "9"
    check("SELECT MAX(v) AS m, MIN(v) AS lo FROM oracle_ints", "oracle_ints" -> Seq(9, 50).toDF("v"))
  }

  test("rows whose joined cells collide still sort into the same order") {
    // joined without a separator, ("1", "23") and ("12", "3") both read "123";
    // joined with U+0001, ("a", "b\u0001c") and ("a\u0001b", "c") collide
    val ints = Seq((1, 23), (12, 3)).toDF("a", "b")
    Oracle.assertEquivalent(ints, "SELECT a, b FROM oracle_pairs ORDER BY a DESC", "oracle_pairs" -> ints)
    val strings = Seq(("a", "b\u0001c"), ("a\u0001b", "c")).toDF("a", "b")
    Oracle.assertEquivalent(strings, "SELECT a, b FROM oracle_strings ORDER BY a DESC", "oracle_strings" -> strings)
  }

  test("NULLs in DATE, DOUBLE and STRING columns") {
    val schema = StructType(Seq(
      StructField("d", DateType), StructField("x", DoubleType), StructField("s", StringType)))
    val nulls = spark.createDataFrame(spark.sparkContext.parallelize(Seq(
      Row(Date.valueOf("1995-03-15"), 1.5, "a"),
      Row(null, 2.25, null),
      Row(Date.valueOf("1994-12-31"), null, "b"),
      Row(null, null, null),
    ), 1), schema)
    check(
      """SELECT COUNT(d) AS nd, MIN(d) AS min_d, COUNT(x) AS nx, SUM(x) AS sum_x,
        |       COUNT(s) AS ns, MIN(s) AS min_s, SUM(CASE WHEN d IS NULL THEN 1 ELSE 0 END) AS d_nulls
        |FROM oracle_nulls""".stripMargin,
      "oracle_nulls" -> nulls)
    check("SELECT d, x, s FROM oracle_nulls WHERE x IS NULL OR s IS NULL", "oracle_nulls" -> nulls)
  }

  test("a changed value, an extra row and a mis-aliased column are rejected") {
    val kv = Seq((1, "a"), (2, "b")).toDF("k", "v")
    val sql = "SELECT k, v FROM oracle_kv"
    Oracle.assertEquivalent(kv, sql, "oracle_kv" -> kv)
    assert(mismatch(Seq((1, "a"), (2, "c")).toDF("k", "v"), sql, "oracle_kv" -> kv).contains("result mismatch"))
    assert(mismatch(Seq((1, "a"), (2, "b"), (3, "c")).toDF("k", "v"), sql, "oracle_kv" -> kv)
      .contains("result mismatch"))
    assert(mismatch(kv.toDF("k", "w"), sql, "oracle_kv" -> kv).contains("column mismatch"))
  }
}
