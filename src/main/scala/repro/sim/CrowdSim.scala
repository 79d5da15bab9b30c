package repro.sim

import repro.crowd.{CrowdModel, DoorFlow, ModelState}
import repro.estimator.{PopulationEstimator, Rectification}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Ground-truth crowd micro-simulator — the gold standard of Section 6.
  *
  * Evolves the *actual* populations of every partition on the update grid.
  * At each grid step, every reporting door emits a flow — `Poisson(λ)` draws
  * in stochastic mode, exactly λ in deterministic mode — rectified against
  * the emitting partition's actual population exactly as the estimators
  * rectify expected flows. In deterministic mode the simulator is therefore
  * the fixed point of the exact global estimator, which is what makes the
  * "exact search ≡ gold" test possible (DESIGN.md §5.3).
  *
  * One instance represents one realized world; all algorithms evaluated for
  * a query instance are scored against the same realization.
  */
final class CrowdSim(val model: CrowdModel, seed: Long, val deterministic: Boolean) {
  private val space   = model.space
  private val rng     = new Random(seed)
  private val popHist = ArrayBuffer[Array[Double]](model.initialPop.toArray)

  /** Actual population of partition v over grid interval g. */
  def populationAt(v: Int, g: Int): Double = popsAt(g)(v)

  /** Snapshot of all actual populations at grid step g. */
  def snapshot(g: Int): IndexedSeq[Double] = popsAt(g).toIndexedSeq

  def derivedSteps: Int = popHist.size - 1

  private def popsAt(g: Int): Array[Double] = {
    while (popHist.size <= g) stepOnce()
    popHist(g)
  }

  private def stepOnce(): Unit = {
    val g     = popHist.size
    val flows = new Array[Double](model.edges.size)
    var ei    = 0
    while (ei < flows.length) {
      val lambda = model.expectedFlowAt(ei, g) // 0 between reports: no draw, as for λ = 0
      flows(ei) = if (deterministic) lambda else DoorFlow.samplePoisson(lambda, rng).toDouble
      ei += 1
    }
    val next = new Array[Double](space.numPartitions)
    Rectification.step(space, popHist(g - 1), flows, next)
    popHist += next
  }
}

/** Estimator facade over the simulator truth — used to compute the gold
  * path (exact search over actual populations) and by the adaptive baseline
  * to observe the world.
  */
final class SimOracleEstimator(val state: ModelState, sim: CrowdSim) extends PopulationEstimator {
  val name                                 = "oracle"
  def populationAt(v: Int, g: Int): Double = sim.populationAt(v, g)
}
