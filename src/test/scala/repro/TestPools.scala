package repro

import java.util.concurrent.ForkJoinPool

object TestPools {
  /** `body` run as a task of a fresh ForkJoinPool of `threads` workers, so
    * parallel streams and forked tasks inside it run on that pool.
    */
  def onPool[T](threads: Int)(body: => T): T = {
    val pool = new ForkJoinPool(threads)
    try pool.submit(() => body).get finally pool.shutdown()
  }
}
