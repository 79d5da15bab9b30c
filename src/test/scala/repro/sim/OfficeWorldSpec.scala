package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.{CrowdModel, ModelState}
import repro.estimator.{GlobalEstimator, LocalEstimator}
import repro.exp.Params
import repro.indoor.SynthFloorplan

/** Differential checks at full office scale (Table 3 model: 721
  * partitions), out to the 720-step horizon the tables use.
  */
class OfficeWorldSpec extends AnyFunSuite {

  private lazy val model = CrowdModel.synthetic(
    SynthFloorplan.office(Params.floorsDefault, seed = 1), objScale = Params.objsDefault, ti = Params.tiDefault, seed = 1)

  test("global, exact local and the deterministic world agree on every partition of the office") {
    val global = new GlobalEstimator(new ModelState(model))
    val local  = new LocalEstimator(new ModelState(model), exactUpstream = true)
    val world  = new CrowdSim(model, seed = 1, deterministic = true)
    for (g <- Seq(1, 97, 360, 720); v <- 0 until model.space.numPartitions) {
      val p = global.populationAt(v, g)
      assert(math.abs(local.populationAt(v, g) - p) < 1e-9, s"local v=$v g=$g")
      assert(math.abs(world.populationAt(v, g) - p) < 1e-9, s"world v=$v g=$g")
    }
  }

  test("the stochastic world's Poisson draws are pinned (seed 7, step 30)") {
    val pops = new CrowdSim(model, seed = 7, deterministic = false).snapshot(30)
    val head = Seq(60.3460498355968, 71.41840668361618, 460.1446860514019, 764.6583523408785,
      685.3041920359199, 63.01851422937476, 612.984852594235, 499.80641418953417)
    assert(pops.take(head.size) == head)
    assert(pops.sum == 316346.9379342313)
    // order-sensitive digest of every partition's exact bits
    val digest = pops.foldLeft(17L)((h, p) => h * 31 + java.lang.Double.doubleToLongBits(p))
    assert(digest == -5591327437553228495L)
  }
}
