package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** A timed span: a layer boundary crossed by one call. `parent` is the index
  * of the enclosing span in the same recorder, or -1 at the top level.
  */
final case class Span(name: String, startNs: Long, endNs: Long, parent: Int) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory measurements of one pass (one fixed unit of work).
  *
  * End-to-end samples (tuning-call walls, live-Spark query walls) and counts
  * are always kept. Spans are kept only when `traced`: they cost an allocation
  * per objective run, which is what a traced run adds over a plain one.
  */
final class PassRecorder(val traced: Boolean) {
  val tuneCallSeconds = ArrayBuffer.empty[Double]
  val querySeconds = ArrayBuffer.empty[Double]
  val spans = ArrayBuffer.empty[Span]
  val counts = scala.collection.mutable.LinkedHashMap.empty[String, Double]
  var wallSeconds: Double = 0.0

  private var open: List[Int] = Nil

  def add(name: String, v: Double): Unit = counts.update(name, counts.getOrElse(name, 0.0) + v)

  /** Run `body` inside a span named `name`; the span is recorded only when traced. */
  def span[A](name: String)(body: => A): A = {
    if (!traced) return body
    val idx = spans.size
    spans += Span(name, System.nanoTime(), 0L, open.headOption.getOrElse(-1))
    open = idx :: open
    try body
    finally {
      spans(idx) = spans(idx).copy(endNs = System.nanoTime())
      open = open.tail
    }
  }

  /** Summed self time of the spans named `name`: their duration minus the
    * part covered by their direct children.
    */
  def selfSeconds(name: String): Double = {
    val childSeconds = new Array[Double](spans.size)
    spans.foreach(s => if (s.parent >= 0) childSeconds(s.parent) += s.seconds)
    spans.indices.filter(i => spans(i).name == name).map(i => spans(i).seconds - childSeconds(i)).sum
  }
}

/** Operation tally behind `attempted`, `failed` and the error rate. */
final class Tally {
  var attempted = 0L
  var failed = 0L
  private val reasons = ArrayBuffer.empty[String]

  /** Count one operation; a false `ok` counts it as failed with `why`. */
  def check(ok: Boolean, why: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (reasons.size < 20) reasons += why
    }
  }

  def failures: Seq[String] = reasons.toSeq
}

object Stat {
  /** Middle sample, or the mean of the two middle samples of an even count. */
  def median(xs: Iterable[Double]): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "median of no samples")
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Nearest-rank quantile (the smallest sample with at least `p` of the
    * samples at or below it).
    */
  def quantile(xs: Iterable[Double], p: Double): Double = {
    val s = xs.toArray.sorted
    require(s.nonEmpty, "quantile of no samples")
    s(math.min(s.length - 1, math.max(0, math.ceil(p * s.length).toInt - 1)))
  }

  def geomean(xs: Iterable[Double]): Double = math.exp(xs.map(math.log).sum / xs.size)

  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Derive a stream seed from the run's seed and a label. */
  def derive(seed: Long, label: String): Long = {
    var x = seed * 0x9E3779B97F4A7C15L + label.hashCode.toLong
    x ^= x >>> 33; x *= 0xff51afd7ed558ccdL; x ^= x >>> 33; x *= 0xc4ceb9fe1a85ec53L; x ^= x >>> 33
    x & 0x7fffffffffffL
  }
}
