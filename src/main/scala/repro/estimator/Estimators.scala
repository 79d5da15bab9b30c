package repro.estimator

import repro.crowd.{CrowdModel, ModelState}
import repro.indoor.IndoorSpace

/** A time-evolving population estimator (Section 4): given a partition and a
  * grid step, returns the partition's (estimated) population over that unit
  * time interval. Derivations are memoized in the shared [[ModelState]], so
  * repeated lookups during one query are free and instrumented exactly once.
  */
trait PopulationEstimator {
  def state: ModelState
  def model: CrowdModel = state.model
  def name: String

  /** Population of partition v over grid interval g (g=0 is the latest
    * known population `P_{t_l}`).
    */
  def populationAt(v: Int, g: Int): Double
}

/** The Figure 4 / Eq. 6 rectification step on one grid step's dense rows —
  * the single kernel behind Alg. 1, Alg. 2 / Strategy PP and the gold
  * simulator. `flows` is indexed like `space.links`; populations by
  * partition.
  */
object Rectification {

  /** Figure 4: scales partition v's outflows in `flows` down so that they sum
    * to at most its previous population `pPrev`. Returns the number of flows
    * rewritten (0, or v's out-degree when rectification triggers).
    */
  def rectifyOut(space: IndoorSpace, v: Int, pPrev: Double, flows: Array[Double]): Int = {
    val from   = space.outStart(v)
    val until  = space.outStart(v + 1)
    val outSum = sum(space.outEdge, from, until, flows)
    if (outSum > pPrev && outSum > 0) {
      val scale = pPrev / outSum
      var i     = from
      while (i < until) { val ei = space.outEdge(i); flows(ei) *= scale; i += 1 }
      until - from
    } else 0
  }

  /** Eq. 6: v's population after this step's (rectified) flows. */
  def nextPop(space: IndoorSpace, v: Int, pPrev: Double, flows: Array[Double]): Double = {
    val outSum = sum(space.outEdge, space.outStart(v), space.outStart(v + 1), flows)
    val inSum  = sum(space.inEdge, space.inStart(v), space.inStart(v + 1), flows)
    math.max(0.0, pPrev - outSum + inSum)
  }

  /** One whole-building step (Alg. 1): rectify every partition's outflows
    * against `prev`, then write every Eq. 6 population into `next`. Returns
    * the number of flows rewritten by rectification.
    */
  def step(space: IndoorSpace, prev: Array[Double], flows: Array[Double], next: Array[Double]): Int = {
    var rewritten = 0
    var v         = 0
    while (v < space.numPartitions) { rewritten += rectifyOut(space, v, prev(v), flows); v += 1 }
    v = 0
    while (v < space.numPartitions) { next(v) = nextPop(space, v, prev(v), flows); v += 1 }
    rewritten
  }

  private def sum(edge: Array[Int], from: Int, until: Int, flows: Array[Double]): Double = {
    var s = 0.0
    var i = from
    while (i < until) { s += flows(edge(i)); i += 1 }
    s
  }
}

/** Algorithm 1 — PopulationGlobal. Advances the whole model one grid step at
  * a time: assign every edge its expected flow (λ at report steps, else 0),
  * rectify each partition's outflows against its current population
  * (Figure 4), then apply Eq. 6 to every partition.
  */
final class GlobalEstimator(val state: ModelState) extends PopulationEstimator {
  val name                = "global"
  private val space       = model.space
  private val initialPop  = model.initialPop.toArray
  private var derivedUpTo = 0

  def populationAt(v: Int, g: Int): Double = {
    if (g <= 0) return model.initialPop(v)
    ensure(g)
    state.popRow(g)(v)
  }

  private def ensure(gTarget: Int): Unit =
    while (derivedUpTo < gTarget) {
      val g     = derivedUpTo + 1
      val flows = state.flowRow(g)
      var ei    = 0
      while (ei < flows.length) { flows(ei) = model.expectedFlowAt(ei, g); ei += 1 }
      val prev = if (g == 1) initialPop else state.popRow(g - 1)
      state.flowDerivations += flows.length + Rectification.step(space, prev, flows, state.popRow(g))
      state.popDerivations += space.numPartitions
      derivedUpTo = g
    }
}

/** Algorithm 2 — PopulationLocal — and its Strategy-PP variant.
  *
  * Derives a single partition's population forward step by step. At each
  * step, the partition's own outflows are set from the flow functions and
  * rectified against its previous population; inflows are obtained by
  * recursively deriving each upstream partition's (rectified) outflows when
  * `exactUpstream` is true, or taken directly from the flow functions when
  * false (Strategy PP: "Population Derivation for Partial Partitions" — the
  * single-line change to Alg. 2's line 20 described in Section 5.2).
  *
  * All intermediate flows/populations are memoized in [[ModelState]], so
  * shared upstream work across lookups is never repeated.
  */
final class LocalEstimator(val state: ModelState, exactUpstream: Boolean) extends PopulationEstimator {
  val name          = if (exactUpstream) "local" else "pp"
  private val space = model.space
  // highest contiguously-derived step per partition — O(1) repeat lookups
  private val derivedUpTo = new Array[Int](space.numPartitions)

  def populationAt(v: Int, g: Int): Double = {
    if (g <= 0) return model.initialPop(v)
    if (derivedUpTo(v) < g) {
      var pPrev = prevPop(v, derivedUpTo(v) + 1)
      while (derivedUpTo(v) < g) {
        val gg   = derivedUpTo(v) + 1
        val pops = state.popRow(gg)
        if (pops(v).isNaN) step(v, gg, pPrev, pops)
        pPrev = pops(v)
        derivedUpTo(v) = gg
      }
    }
    state.popRow(g)(v)
  }

  private def prevPop(v: Int, g: Int): Double =
    if (g == 1) model.initialPop(v) else populationAt(v, g - 1)

  /** Sets edge ei's expected flow at step g unless it is already derived. */
  private def ensureFlow(flows: Array[Double], ei: Int, g: Int): Unit =
    if (flows(ei).isNaN) { flows(ei) = model.expectedFlowAt(ei, g); state.flowDerivations += 1 }

  /** Set and rectify v's outflows at step g; runs once per (v, g). */
  private def setOut(v: Int, g: Int, pPrev: Double, flows: Array[Double]): Unit = {
    var i = space.outStart(v)
    while (i < space.outStart(v + 1)) { ensureFlow(flows, space.outEdge(i), g); i += 1 }
    state.flowDerivations += Rectification.rectifyOut(space, v, pPrev, flows)
  }

  private def step(v: Int, g: Int, pPrev: Double, pops: Array[Double]): Unit = {
    val flows = state.flowRow(g)
    // under PP only v's own step, which runs once, sets v's outflows
    if (!exactUpstream || state.markOutDone(v, g)) setOut(v, g, pPrev, flows)
    var i = space.inStart(v)
    while (i < space.inStart(v + 1)) {
      val ei = space.inEdge(i)
      if (flows(ei).isNaN) {
        if (!exactUpstream) ensureFlow(flows, ei, g) // Strategy PP
        else {                                       // recursion into the upstream cone
          val u = space.linkFrom(ei)
          if (state.markOutDone(u, g)) setOut(u, g, prevPop(u, g), flows)
        }
      }
      i += 1
    }
    pops(v) = Rectification.nextPop(space, v, pPrev, flows)
    state.popDerivations += 1
  }
}

/** Crowd-free estimator: every partition is empty, so ρ is a constant and
  * the search degenerates to a plain shortest-(distance) path. Used for
  * query-instance generation (the s2t control) and reduction tests.
  */
final class ZeroEstimator(val state: ModelState) extends PopulationEstimator {
  val name                                 = "zero"
  def populationAt(v: Int, g: Int): Double = 0.0
}

/** Freezes another estimator at a fixed grid step, making all edge weights
  * time-independent (snapshot mode) — used to cross-validate the Pregel
  * search against driver Dijkstra, where both are provably optimal.
  */
final class FrozenEstimator(inner: PopulationEstimator, gFixed: Int) extends PopulationEstimator {
  val name                                 = s"frozen@$gFixed"
  val state: ModelState                    = inner.state
  def populationAt(v: Int, g: Int): Double = inner.populationAt(v, gFixed)
}

/** Strategy NT — "Population Derivation at Necessary Timestamps" — layered
  * on top of Strategy PP as in the paper. If the std-dev σ of a partition's
  * historical flow differences is below η, its population at the arrival
  * step is extrapolated directly via Eq. 7 (memoized in the state's
  * population rows, which PP never fills for such a partition); otherwise
  * the PP derivation runs.
  */
final class NTEstimator(inner: LocalEstimator, eta: Double = 3.0) extends PopulationEstimator {
  val name              = "nt"
  val state: ModelState = inner.state

  def populationAt(v: Int, g: Int): Double = {
    val (mu, sigma) = model.historyStats(v)
    if (sigma >= eta) return inner.populationAt(v, g)
    val pops = state.popRow(g)
    if (pops(v).isNaN) state.putPop(v, g, math.max(0.0, model.initialPop(v) + mu * model.updateStepsBetween(v, 0, g)))
    pops(v)
  }
}
