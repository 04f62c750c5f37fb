package repro.sparkexec

/** One SQL query of a lite workload.
  *
  * @param tables input table names the query reads (SynthData generators)
  */
final case class LiteQuery(id: String, sql: String, tables: Seq[String])

/** SQL texts of the real-execution workloads: 22 TPC-H-lite queries over the
  * 4-table SynthData schema plus the 3 HiBench SQL benchmarks.
  *
  * Cross-engine discipline (the same text runs on Spark and on the DuckDB
  * oracle, whose tables carry the Spark column types):
  *  - every output column is aliased identically;
  *  - every floating aggregate is ROUNDed coarsely enough that the two
  *    engines' different summation orders cannot flip the 6-decimal
  *    canonicalization the oracle applies.
  *
  * TPC-H's supplier/nation/region tables are folded into customer attributes
  * (c_nationkey); each query keeps its original's operator shape — scan-only,
  * n-way join, group-by, correlated EXISTS, CTE, scalar subquery — which is
  * what matters for a configuration tuner's workload (DESIGN.md §2).
  */
object LiteQueries {

  val tpch: Seq[LiteQuery] = Seq(
    LiteQuery("Q1",
      """SELECT l_returnflag AS rflag, l_linestatus AS lstatus,
        |       ROUND(SUM(l_quantity), -1) AS sum_qty,
        |       ROUND(SUM(l_extendedprice), -3) AS sum_base,
        |       ROUND(SUM(l_extendedprice * (1 - l_discount)), -3) AS sum_disc,
        |       ROUND(AVG(l_quantity), 3) AS avg_qty,
        |       COUNT(*) AS cnt
        |FROM lineitem
        |WHERE l_shipdate <= DATE '1998-09-02'
        |GROUP BY l_returnflag, l_linestatus""".stripMargin,
      Seq("lineitem")),

    LiteQuery("Q2",
      """SELECT p_type AS ptype, ROUND(MIN(p_retailprice), 2) AS min_price, COUNT(*) AS cnt
        |FROM part
        |WHERE p_size BETWEEN 10 AND 20
        |GROUP BY p_type""".stripMargin,
      Seq("part")),

    LiteQuery("Q3",
      """SELECT l.l_orderkey AS okey, o.o_orderdate AS odate,
        |       ROUND(SUM(l_extendedprice * (1 - l_discount)), -3) AS revenue
        |FROM customer c
        |JOIN orders o ON c.c_custkey = o.o_custkey
        |JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        |WHERE c.c_mktsegment = 'BUILDING'
        |  AND o.o_orderdate < DATE '1995-03-15'
        |  AND l.l_shipdate > DATE '1995-03-15'
        |GROUP BY l.l_orderkey, o.o_orderdate
        |HAVING SUM(l_extendedprice * (1 - l_discount)) > 300000""".stripMargin,
      Seq("customer", "orders", "lineitem")),

    LiteQuery("Q4",
      """SELECT o_orderstatus AS ostatus, COUNT(*) AS order_count
        |FROM orders
        |WHERE o_orderdate >= DATE '1993-07-01'
        |  AND o_orderdate < DATE '1993-10-01'
        |  AND EXISTS (SELECT 1 FROM lineitem
        |              WHERE l_orderkey = o_orderkey AND l_quantity > 45)
        |GROUP BY o_orderstatus""".stripMargin,
      Seq("orders", "lineitem")),

    LiteQuery("Q5",
      """SELECT c.c_nationkey AS nation, ROUND(SUM(l_extendedprice * (1 - l_discount)), -3) AS revenue
        |FROM customer c
        |JOIN orders o ON c.c_custkey = o.o_custkey
        |JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        |WHERE o.o_orderdate >= DATE '1994-01-01'
        |  AND o.o_orderdate < DATE '1995-01-01'
        |GROUP BY c.c_nationkey""".stripMargin,
      Seq("customer", "orders", "lineitem")),

    LiteQuery("Q6",
      """SELECT ROUND(SUM(l_extendedprice * l_discount), -3) AS revenue
        |FROM lineitem
        |WHERE l_shipdate >= DATE '1994-01-01'
        |  AND l_shipdate < DATE '1995-01-01'
        |  AND l_discount BETWEEN 0.05 AND 0.07
        |  AND l_quantity < 24""".stripMargin,
      Seq("lineitem")),

    LiteQuery("Q7",
      """SELECT c.c_nationkey AS nation,
        |       EXTRACT(YEAR FROM l.l_shipdate) AS l_year,
        |       ROUND(SUM(l_extendedprice * (1 - l_discount)), -3) AS revenue
        |FROM customer c
        |JOIN orders o ON c.c_custkey = o.o_custkey
        |JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        |WHERE c.c_nationkey IN (1, 2)
        |GROUP BY c.c_nationkey, EXTRACT(YEAR FROM l.l_shipdate)""".stripMargin,
      Seq("customer", "orders", "lineitem")),

    LiteQuery("Q8",
      """SELECT EXTRACT(YEAR FROM o.o_orderdate) AS o_year,
        |       ROUND(SUM(CASE WHEN p.p_type = 'ECONOMY' THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END)
        |             / SUM(l_extendedprice * (1 - l_discount)), 4) AS mkt_share
        |FROM part p
        |JOIN lineitem l ON p.p_partkey = l.l_partkey
        |JOIN orders o ON o.o_orderkey = l.l_orderkey
        |GROUP BY EXTRACT(YEAR FROM o.o_orderdate)""".stripMargin,
      Seq("part", "lineitem", "orders")),

    LiteQuery("Q9",
      """SELECT p.p_type AS ptype, EXTRACT(YEAR FROM o.o_orderdate) AS o_year,
        |       ROUND(SUM(l_extendedprice * (1 - l_discount) - 0.5 * l.l_quantity), -3) AS profit
        |FROM part p
        |JOIN lineitem l ON p.p_partkey = l.l_partkey
        |JOIN orders o ON o.o_orderkey = l.l_orderkey
        |GROUP BY p.p_type, EXTRACT(YEAR FROM o.o_orderdate)""".stripMargin,
      Seq("part", "lineitem", "orders")),

    LiteQuery("Q10",
      """SELECT c.c_custkey AS custkey, ROUND(SUM(l_extendedprice * (1 - l_discount)), -3) AS revenue
        |FROM customer c
        |JOIN orders o ON c.c_custkey = o.o_custkey
        |JOIN lineitem l ON l.l_orderkey = o.o_orderkey
        |WHERE l.l_returnflag = 'R'
        |  AND o.o_orderdate >= DATE '1993-10-01'
        |  AND o.o_orderdate < DATE '1994-01-01'
        |GROUP BY c.c_custkey
        |HAVING SUM(l_extendedprice * (1 - l_discount)) > 300000""".stripMargin,
      Seq("customer", "orders", "lineitem")),

    LiteQuery("Q11",
      """SELECT p_type AS ptype,
        |       ROUND(SUM(p_retailprice * p_size), -3) AS stock_value
        |FROM part
        |GROUP BY p_type
        |HAVING SUM(p_retailprice * p_size) >
        |       (SELECT SUM(p_retailprice * p_size) * 0.15 FROM part)""".stripMargin,
      Seq("part")),

    LiteQuery("Q12",
      """SELECT l_linestatus AS lstatus,
        |       SUM(CASE WHEN o_orderstatus = 'F' THEN 1 ELSE 0 END) AS f_count,
        |       COUNT(*) AS total_count
        |FROM orders JOIN lineitem ON o_orderkey = l_orderkey
        |WHERE l_shipdate >= DATE '1994-01-01'
        |  AND l_shipdate < DATE '1995-01-01'
        |GROUP BY l_linestatus""".stripMargin,
      Seq("orders", "lineitem")),

    LiteQuery("Q13",
      """SELECT c_count, COUNT(*) AS custdist
        |FROM (SELECT c.c_custkey AS ck, COUNT(o.o_orderkey) AS c_count
        |      FROM customer c LEFT JOIN orders o ON c.c_custkey = o.o_custkey
        |      GROUP BY c.c_custkey) t
        |GROUP BY c_count""".stripMargin,
      Seq("customer", "orders")),

    LiteQuery("Q14",
      """SELECT ROUND(100.0 * SUM(CASE WHEN p.p_type = 'PROMO' THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END)
        |             / SUM(l_extendedprice * (1 - l_discount)), 4) AS promo_revenue
        |FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
        |WHERE l.l_shipdate >= DATE '1995-09-01'
        |  AND l.l_shipdate < DATE '1995-10-01'""".stripMargin,
      Seq("lineitem", "part")),

    LiteQuery("Q15",
      // top-revenue customer via a window max (a doubly-referenced CTE over
      // cached inputs trips SPARK's InMemoryRelation attribute remap)
      """SELECT ck AS custkey, ROUND(total, -3) AS total_revenue
        |FROM (SELECT ck, total, MAX(total) OVER () AS mx
        |      FROM (SELECT o.o_custkey AS ck, SUM(l_extendedprice * (1 - l_discount)) AS total
        |            FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
        |            GROUP BY o.o_custkey) r) w
        |WHERE total = mx""".stripMargin,
      Seq("orders", "lineitem")),

    LiteQuery("Q16",
      """SELECT p_size AS psize, COUNT(DISTINCT p_type) AS type_cnt, COUNT(*) AS part_cnt
        |FROM part
        |WHERE p_type <> 'STANDARD'
        |GROUP BY p_size""".stripMargin,
      Seq("part")),

    LiteQuery("Q17",
      """SELECT ROUND(SUM(l.l_extendedprice) / 7.0, -2) AS avg_yearly
        |FROM lineitem l
        |JOIN (SELECT l_partkey AS pk, AVG(l_quantity) AS avg_qty
        |      FROM lineitem GROUP BY l_partkey) a
        |  ON l.l_partkey = a.pk
        |WHERE l.l_quantity < 0.4 * a.avg_qty""".stripMargin,
      Seq("lineitem")),

    LiteQuery("Q18",
      """SELECT c.c_custkey AS custkey, ROUND(SUM(l.l_quantity), -1) AS total_qty
        |FROM customer c
        |JOIN orders o ON c.c_custkey = o.o_custkey
        |JOIN lineitem l ON o.o_orderkey = l.l_orderkey
        |GROUP BY c.c_custkey
        |HAVING SUM(l.l_quantity) > 1500""".stripMargin,
      Seq("customer", "orders", "lineitem")),

    LiteQuery("Q19",
      """SELECT ROUND(SUM(l_extendedprice * (1 - l_discount)), -3) AS revenue
        |FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
        |WHERE (p.p_type = 'SMALL' AND l.l_quantity BETWEEN 1 AND 11
        |       AND p.p_size BETWEEN 1 AND 5)
        |   OR (p.p_type = 'MEDIUM' AND l.l_quantity BETWEEN 10 AND 20
        |       AND p.p_size BETWEEN 1 AND 10)
        |   OR (p.p_type = 'LARGE' AND l.l_quantity BETWEEN 20 AND 30
        |       AND p.p_size BETWEEN 1 AND 15)""".stripMargin,
      Seq("lineitem", "part")),

    LiteQuery("Q20",
      """SELECT p_type AS ptype, COUNT(*) AS cnt
        |FROM part
        |WHERE p_partkey IN (SELECT l_partkey FROM lineitem
        |                    WHERE l_shipdate >= DATE '1994-01-01'
        |                      AND l_shipdate < DATE '1995-01-01'
        |                    GROUP BY l_partkey
        |                    HAVING SUM(l_quantity) > 100)
        |GROUP BY p_type""".stripMargin,
      Seq("part", "lineitem")),

    LiteQuery("Q21",
      """SELECT c.c_nationkey AS nation, COUNT(*) AS numwait
        |FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey
        |WHERE o.o_orderstatus = 'F'
        |  AND EXISTS (SELECT 1 FROM lineitem l1
        |              WHERE l1.l_orderkey = o.o_orderkey AND l1.l_quantity > 45)
        |  AND NOT EXISTS (SELECT 1 FROM lineitem l2
        |                  WHERE l2.l_orderkey = o.o_orderkey AND l2.l_quantity < 3)
        |GROUP BY c.c_nationkey""".stripMargin,
      Seq("customer", "orders", "lineitem")),

    LiteQuery("Q22",
      """SELECT c_nationkey AS nation, COUNT(*) AS numcust,
        |       ROUND(SUM(c_acctbal) * 100) AS totacctbal_cents
        |FROM customer
        |WHERE c_acctbal >
        |      (SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > 0.0)
        |  AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)
        |GROUP BY c_nationkey""".stripMargin,
      Seq("customer", "orders")),
  )

  /** HiBench SQL benchmarks: Scan (map only), Join (map + reduce),
    * Aggregation (map + group-by reduce) — paper §4.2.
    */
  val hibenchScan: LiteQuery = LiteQuery("SCAN",
    """SELECT pageurl AS purl, pagerank AS prank
      |FROM rankings
      |WHERE pagerank > 950""".stripMargin,
    Seq("rankings"))

  val hibenchJoin: LiteQuery = LiteQuery("JOIN",
    """SELECT uv.sourceip AS sip, ROUND(AVG(r.pagerank), 2) AS avg_rank,
      |       ROUND(SUM(uv.adrevenue) * 100) AS total_rev_cents
      |FROM rankings r JOIN uservisits uv ON r.pageurl = uv.desturl
      |WHERE uv.visitdate >= DATE '1999-01-01'
      |  AND uv.visitdate <= DATE '2000-01-01'
      |GROUP BY uv.sourceip""".stripMargin,
    Seq("rankings", "uservisits"))

  val hibenchAggregation: LiteQuery = LiteQuery("AGG",
    """SELECT sourceip AS sip, ROUND(SUM(adrevenue) * 100) AS total_rev_cents
      |FROM uservisits
      |GROUP BY sourceip""".stripMargin,
    Seq("uservisits"))

  val hibench: Seq[LiteQuery] = Seq(hibenchScan, hibenchJoin, hibenchAggregation)

  /** Everything the real-Spark objective runs. */
  val all: Seq[LiteQuery] = tpch ++ hibench
}
