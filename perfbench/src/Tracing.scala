package repro.perfbench

import java.io.PrintWriter
import java.nio.file.Path
import repro.crowd.{CrowdModel, ModelState}
import repro.estimator.PopulationEstimator
import scala.collection.mutable.ArrayBuffer

/** One traced layer call. `parent` is the id of the span that caused it
  * (-1 for a root), `query` the id of the query it belongs to (-1 during
  * set-up). A folded span (`count` > 1) stands for many calls: its duration
  * is their summed time, laid out from the first call's start.
  */
final case class Span(id: Int, parent: Int, query: Int, name: String, column: String, startNs: Long, endNs: Long, count: Long)

/** In-memory span store, written out once when the run ends. */
final class Tracer(val enabled: Boolean) {
  private val t0    = System.nanoTime()
  private val spans = ArrayBuffer.empty[Span]

  /** Records a finished span and returns its id (-1 when tracing is off). */
  def record(name: String, parent: Int, query: Int, column: String, startNs: Long, endNs: Long, count: Long = 1): Int =
    if (!enabled) -1
    else {
      val id = spans.size
      spans += Span(id, parent, query, name, column, startNs - t0, endNs - t0, count)
      id
    }

  /** Times `body` as a span named `name`. */
  def timed[A](name: String, parent: Int = -1)(body: => A): (A, Long) = {
    val s = System.nanoTime()
    val a = body
    val e = System.nanoTime()
    record(name, parent, -1, "", s, e)
    (a, e - s)
  }

  def size: Int = spans.size

  def write(path: Path): Unit = {
    val out = new PrintWriter(path.toFile, "UTF-8")
    try spans.foreach { s =>
      out.println(
        s"""{"id":${s.id},"parent":${s.parent},"query":${s.query},"name":"${s.name}","column":"${s.column}",""" +
          s""""start_us":${s.startNs / 1000.0},"end_us":${s.endNs / 1000.0},"count":${s.count}}""")
    }
    finally out.close()
  }
}

/** Decorator that times and counts every `populationAt` a search makes.
  * Lookups at grid step `horizon` or beyond are counted as clamped: the
  * searches cap arrival steps at the horizon, so a lookup there may stand
  * for a later arrival.
  */
final class TimedEstimator(inner: PopulationEstimator, horizon: Int) extends PopulationEstimator {
  def state: ModelState           = inner.state
  override def model: CrowdModel  = inner.model
  def name: String                = inner.name
  var nanos: Long                 = 0L
  var lookups: Long               = 0L
  var clamped: Long               = 0L
  var maxStep: Int                = 0

  def populationAt(v: Int, g: Int): Double = {
    val s = System.nanoTime()
    val p = inner.populationAt(v, g)
    nanos += System.nanoTime() - s
    lookups += 1
    if (g >= horizon) clamped += 1
    if (g > maxStep) maxStep = g
    p
  }
}
