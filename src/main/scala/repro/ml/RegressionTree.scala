package repro.ml

/** CART regression tree with variance-reduction splits.
  *
  * Substrate for GBRT (DAC's model family and the Fig 16/17 comparator).
  * Each feature's row order is sorted once per fit (`presort`); every node
  * scans its members in those per-feature orders for the best threshold, and
  * a split partitions the orders stably, so no node sorts. No pruning beyond
  * `maxDepth` / `minSamplesLeaf`.
  */
final class RegressionTree private (root: RegressionTree.Node, val nFeatures: Int) {
  def predict(x: Array[Double]): Double = RegressionTree.walk(root, x)

  /** Total variance reduction contributed per feature (Gini-style importance). */
  def featureImportance: Array[Double] = {
    val imp = new Array[Double](nFeatures)
    def rec(n: RegressionTree.Node): Unit = n match {
      case RegressionTree.Split(f, _, gain, l, r) => imp(f) += gain; rec(l); rec(r)
      case _ => ()
    }
    rec(root)
    imp
  }
}

object RegressionTree {
  sealed trait Node
  final case class Leaf(value: Double) extends Node
  final case class Split(feature: Int, threshold: Double, gain: Double, left: Node, right: Node) extends Node

  @annotation.tailrec
  private def walk(n: Node, x: Array[Double]): Double = n match {
    case Leaf(v) => v
    case Split(f, t, _, l, r) => if (x(f) <= t) walk(l, x) else walk(r, x)
  }

  /** Row indices sorted by each feature. The sort is stable, so ties keep
    * ascending row order: the order restricted to any ascending subset of rows
    * is exactly that subset's own stable sort.
    */
  private[ml] def presort(x: Array[Array[Double]]): Array[Array[Int]] = {
    val rows = x.indices.toArray
    Array.tabulate(x.head.length)(f => rows.sortBy(i => x(i)(f)))
  }

  /** Fit on `orders = presort(x)`; reads but does not modify `x`, `y` or `orders`. */
  private[ml] def fitSorted(x: Array[Array[Double]], y: Array[Double], orders: Array[Array[Int]],
                            maxDepth: Int, minSamplesLeaf: Int): RegressionTree =
    new RegressionTree(new Builder(x, y, orders, minSamplesLeaf).build(0, x.length, maxDepth), x.head.length)

  /** Grows one tree. A node owns the slice [lo, hi) of `members` (its rows in
    * ascending order) and of every `sorted(f)` (its rows in feature-f order).
    * Sums run in those orders; `meanY` and `totSum` start from their first
    * term, as `Array.sum` does, so the rounding matches a per-node sort.
    */
  private final class Builder(x: Array[Array[Double]], y: Array[Double], orders: Array[Array[Int]],
                              minLeaf: Int) {
    private val members = x.indices.toArray
    private val sorted = orders.map(_.clone())
    private val goesLeft = new Array[Boolean](x.length)
    private val spill = new Array[Int](x.length)

    def build(lo: Int, hi: Int, depth: Int): Node = {
      val n = hi - lo
      var s = y(members(lo))
      var k = lo + 1
      while (k < hi) { s += y(members(k)); k += 1 }
      val meanY = s / n
      if (depth == 0 || n < 2 * minLeaf) return Leaf(meanY)
      var sse = 0.0
      k = lo
      while (k < hi) { val e = y(members(k)) - meanY; sse += e * e; k += 1 }
      if (sse < 1e-12) return Leaf(meanY)

      var bestGain = 0.0
      var bestF = -1
      var bestT = 0.0
      var f = 0
      while (f < sorted.length) {
        val order = sorted(f)
        var totSum = y(order(lo)); var totSq = totSum * totSum
        k = lo + 1
        while (k < hi) { val v = y(order(k)); totSum += v; totSq += v * v; k += 1 }
        // prefix sums over sorted order for O(n) split evaluation per feature
        var leftSum = 0.0; var leftSq = 0.0
        k = lo
        while (k < hi - 1) {
          val i = order(k)
          leftSum += y(i); leftSq += y(i) * y(i)
          val nl = k - lo + 1; val nr = n - nl
          val xk = x(i)(f); val xk1 = x(order(k + 1))(f)
          if (xk < xk1 && nl >= minLeaf && nr >= minLeaf) {
            val rightSum = totSum - leftSum; val rightSq = totSq - leftSq
            val sseL = leftSq - leftSum * leftSum / nl
            val sseR = rightSq - rightSum * rightSum / nr
            val gain = sse - sseL - sseR
            if (gain > bestGain) { bestGain = gain; bestF = f; bestT = (xk + xk1) / 2.0 }
          }
          k += 1
        }
        f += 1
      }
      if (bestF < 0) Leaf(meanY)
      else {
        var nLeft = 0
        k = lo
        while (k < hi) {
          val i = members(k)
          goesLeft(i) = x(i)(bestF) <= bestT
          if (goesLeft(i)) nLeft += 1
          k += 1
        }
        partition(members, lo, hi)
        sorted.foreach(partition(_, lo, hi))
        Split(bestF, bestT, bestGain,
          build(lo, lo + nLeft, depth - 1),
          build(lo + nLeft, hi, depth - 1))
      }
    }

    /** Stable in-place partition of `a`'s slice: left-going rows first. */
    private def partition(a: Array[Int], lo: Int, hi: Int): Unit = {
      var l = lo; var r = 0; var k = lo
      while (k < hi) {
        val i = a(k)
        if (goesLeft(i)) { a(l) = i; l += 1 } else { spill(r) = i; r += 1 }
        k += 1
      }
      System.arraycopy(spill, 0, a, l, r)
    }
  }
}
