package repro.sparkexec

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.View
import repro.{Oracle, SparkSpec, SynthData}

/** Correctness of every lite SQL query: the same text runs on Spark (through
  * stock Catalyst) and on DuckDB over identical input rows; result sets must
  * match exactly after canonicalization. This is what makes the real-Spark
  * tuning objective a *verified* workload, not just "it ran".
  */
class QueriesSpec extends SparkSpec {

  private val sf = 0.003

  private lazy val tables: Map[String, DataFrame] = {
    val t = SynthData.tables(spark, sf, LiteQueries.all.flatMap(_.tables))
    t.foreach { case (name, df) => df.createOrReplaceTempView(name) }
    t
  }

  LiteQueries.all.foreach { q =>
    test(s"lite query ${q.id} matches DuckDB") {
      val t = tables // forces view registration before parsing the query
      val df = spark.sql(q.sql)
      Oracle.assertEquivalent(df, q.sql, q.tables.map(n => n -> t(n)): _*)
    }
  }

  test("every query produces a non-degenerate plan (reads its tables)") {
    tables // registers the views the queries resolve against
    LiteQueries.all.foreach { q =>
      // each view the analyzed plan reads, subquery expressions included
      val read = spark.sql(q.sql).queryExecution.analyzed.collectWithSubqueries { case v: View => v.desc.identifier.table }
      assert(read.toSet == q.tables.toSet, q.id)
    }
  }

  test("query ids are unique and tables declared are real") {
    val ids = LiteQueries.all.map(_.id)
    assert(ids.distinct.size == ids.size)
    LiteQueries.all.foreach(q => q.tables.foreach(t => assert(tables.contains(t), s"${q.id} uses unknown $t")))
  }

  test("the TPC-H-lite suite has 22 queries and HiBench 3") {
    assert(LiteQueries.tpch.size == 22)
    assert(LiteQueries.hibench.size == 3)
  }
}
