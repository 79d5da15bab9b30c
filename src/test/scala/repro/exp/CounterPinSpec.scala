package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.core.QueryType
import repro.crowd.CrowdModel
import repro.indoor.SynthFloorplan
import repro.sim.CrowdSim

/** Pins the deterministic per-query counters behind the memory metric on
  * the Table 3 office (model seed 1, instance seed 101, first two
  * instances). A storage or kernel change that alters what an estimator
  * derives, or a search that pushes differently, shows up here without
  * running the benchmark.
  */
class CounterPinSpec extends AnyFunSuite {
  import CounterPinSpec.Pin

  private val fpq0  = Vector(478, 439, 1102, 1103, 1110, 1111, 972, 973, 1030, 1031)
  private val fpq1  = Vector(759, 1101, 1100, 448, 449, 450, 451, 571, 570)
  private val lcpq0 = Vector(478, 534, 535, 447, 598, 599, 1098, 1099, 815, 814, 757, 756, 1110, 1111, 972, 973, 1030, 1031)
  private val lcpq1 = Vector(759, 1101, 1100, 601, 639, 640, 641, 642, 643, 644, 645, 608, 450, 451, 573, 572)

  private val pins: Map[(QueryType, Variant, Int), Pin] = Map(
    (QueryType.FPQ, Variant.Exact, 0)   -> Pin(154075L, 490683L, 745L, fpq0),
    (QueryType.FPQ, Variant.Exact, 1)   -> Pin(147352L, 468620L, 924L, fpq1),
    (QueryType.FPQ, Variant.Global, 0)  -> Pin(157178L, 497921L, 745L, fpq0),
    (QueryType.FPQ, Variant.Global, 1)  -> Pin(151410L, 479177L, 924L, fpq1),
    (QueryType.FPQ, Variant.PP, 0)      -> Pin(55805L, 271348L, 868L, fpq0),
    (QueryType.FPQ, Variant.PP, 1)      -> Pin(51116L, 234959L, 922L, fpq1),
    (QueryType.FPQ, Variant.NT, 0)      -> Pin(13159L, 194106L, 828L, fpq0),
    (QueryType.FPQ, Variant.NT, 1)      -> Pin(11031L, 165439L, 882L, fpq1),
    (QueryType.FPQ, Variant.GTG, 0)     -> Pin(157178L, 497921L, 3953L, fpq0),
    (QueryType.FPQ, Variant.GTG, 1)     -> Pin(151410L, 479177L, 4132L, fpq1),
    (QueryType.LCPQ, Variant.Exact, 0)  -> Pin(514574L, 1720165L, 1383L, lcpq0),
    (QueryType.LCPQ, Variant.Exact, 1)  -> Pin(293059L, 951088L, 651L, lcpq1),
    (QueryType.LCPQ, Variant.Global, 0) -> Pin(519120L, 1733266L, 1383L, lcpq0),
    (QueryType.LCPQ, Variant.Global, 1) -> Pin(299936L, 971795L, 651L, lcpq1),
    (QueryType.LCPQ, Variant.PP, 0)     -> Pin(161192L, 763943L, 1257L, lcpq0),
    (QueryType.LCPQ, Variant.PP, 1)     -> Pin(43246L, 218145L, 646L, lcpq1),
    (QueryType.LCPQ, Variant.NT, 0)     -> Pin(30762L, 460966L, 1013L,
      Vector(478, 439, 536, 537, 598, 599, 1098, 1099, 815, 814, 757, 756, 1110, 1111, 972, 973, 1030, 1031)),
    (QueryType.LCPQ, Variant.NT, 1)     -> Pin(18588L, 289996L, 877L, lcpq1),
    (QueryType.LCPQ, Variant.GTG, 0)    -> Pin(519120L, 1733266L, 4591L, lcpq0),
    (QueryType.LCPQ, Variant.GTG, 1)    -> Pin(299936L, 971795L, 3859L, lcpq1),
  )

  private lazy val space   = SynthFloorplan.office(Params.floorsDefault, seed = 1)
  private lazy val model   = CrowdModel.synthetic(space, objScale = Params.objsDefault, ti = Params.tiDefault, seed = 1)
  private lazy val sim     = new CrowdSim(model, seed = 1, deterministic = true)
  private lazy val queries = Instances.generate(space, 2, Params.s2tDefault, seed = 101)

  for (qt <- Seq[QueryType](QueryType.FPQ, QueryType.LCPQ);
       v  <- Seq(Variant.Exact, Variant.Global, Variant.PP, Variant.NT, Variant.GTG)) {
    test(s"$qt $v counters on the Table 3 office match the pinned values") {
      for (i <- queries.indices) {
        val r = Harness.runOnce(model, sim, v, queries(i), model.t0, qt, maxGrid = 720)
        assert(Pin(r.stats.popDerivations, r.stats.flowDerivations, r.stats.pushes, r.doorSeq) == pins((qt, v, i)),
          s"instance $i")
      }
    }
  }
}

object CounterPinSpec {
  final case class Pin(popDerivations: Long, flowDerivations: Long, pushes: Long, doorSeq: Vector[Int])
}
