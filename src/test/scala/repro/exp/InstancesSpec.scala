package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.crowd.CrowdModel
import repro.core.QueryType
import repro.indoor.SynthFloorplan
import repro.sim.CrowdSim

class InstancesSpec extends AnyFunSuite {

  private lazy val space = SynthFloorplan.office(1)

  test("requested number of instances is generated") {
    assert(Instances.generate(space, 10, 600, seed = 1).size == 10)
  }

  test("instances approximate the requested s2t distance") {
    for (s2t <- Seq(400.0, 800.0, 1200.0)) {
      val qs = Instances.generate(space, 8, s2t, seed = 2)
      qs.foreach { q =>
        val dd    = Instances.doorDistances(space, q.ps)
        val hostT = space.host(q.pt)
        val short = space.enterDoors(hostT)
          .map(d => dd(d) + space.doors(d).pos.dist(q.pt))
          .foldLeft(if (space.host(q.ps) == hostT) q.ps.dist(q.pt) else Double.PositiveInfinity)(math.min)
        assert(short.isFinite)
        assert(math.abs(short - s2t) / s2t < 0.35, s"s2t=$s2t actual=$short")
      }
    }
  }

  test("generation is deterministic in the seed") {
    val a = Instances.generate(space, 5, 700, seed = 3)
    val b = Instances.generate(space, 5, 700, seed = 3)
    assert(a == b)
  }

  test("doorDistances from a point: doors of the host partition get direct distances") {
    val p  = space.partitions(30)
    val ps = p.rect.interiorPoint(0.5, 0.5, p.floor)
    val dd = Instances.doorDistances(space, ps)
    space.leaveDoors(p.id).foreach { d =>
      assert(math.abs(dd(d) - ps.dist(space.doors(d).pos)) < 1e-9)
    }
  }

  test("doorDistances satisfy the triangle property along links") {
    val ps = space.partitions(0).rect.interiorPoint(0.5, 0.5, 0)
    val dd = Instances.doorDistances(space, ps)
    // relaxation fixpoint: no door can be improved through a neighbour
    for (v <- 0 until space.numPartitions; di <- space.enterDoors(v); dj <- space.leaveDoors(v)) {
      if (dd(di).isFinite && space.doorDist(v, di, dj).isFinite) {
        assert(dd(dj) <= dd(di) + space.doorDist(v, di, dj) + 1e-6)
      }
    }
  }
}

class HarnessSpec extends AnyFunSuite {

  private lazy val space   = SynthFloorplan.office(1)
  private lazy val model   = CrowdModel.synthetic(space, objScale = 900, seed = 13)
  private lazy val queries = Instances.generate(space, 4, 500, seed = 17)

  private def golds(sim: CrowdSim, qt: QueryType, qs: Seq[Instances.Query]) =
    qs.map(Harness.gold(model, sim, _, 0.0, qt, 720))

  test("deterministic world: exact variant scores a 100% hit rate and ~0 error") {
    val sim = new CrowdSim(model, seed = 1, deterministic = true)
    for (qt <- Seq(QueryType.FPQ, QueryType.LCPQ)) {
      val m = Harness.evaluate(model, sim, Variant.Exact, qt, queries, golds(sim, qt, queries), reps = 1)
      assert(m.hitRate == 100.0, s"$qt hit=${m.hitRate}")
      assert(m.relErr < 1e-9, s"$qt err=${m.relErr}")
    }
  }

  test("deterministic world: global and PP variants also match gold") {
    val sim = new CrowdSim(model, seed = 1, deterministic = true)
    for (v <- Seq(Variant.Global, Variant.PP)) {
      val m = Harness.evaluate(model, sim, v, QueryType.FPQ, queries, golds(sim, QueryType.FPQ, queries), reps = 1)
      assert(m.hitRate == 100.0, s"$v")
    }
  }

  test("all six variants produce finite metrics") {
    val sim = new CrowdSim(model, seed = 2, deterministic = false)
    Variant.all.foreach { v =>
      val qs = queries.take(2)
      val m  = Harness.evaluate(model, sim, v, QueryType.FPQ, qs, golds(sim, QueryType.FPQ, qs), reps = 1)
      assert(m.timeMs >= 0 && m.memKB >= 0 && m.hitRate >= 0 && m.hitRate <= 100 && m.relErr >= 0,
        s"variant $v: $m")
    }
  }

  test("primary cost selector matches the query type") {
    import repro.core.Cost
    assert(Harness.primary(QueryType.FPQ, Cost(1, 2, 3)) == 2)
    assert(Harness.primary(QueryType.LCPQ, Cost(1, 2, 3)) == 3)
  }

  test("renderTable emits all four metric rows and the column labels") {
    val t = Harness.renderTable("T", Seq("FPQ" -> Harness.Metrics(1.5, 2.5, 98.0, 1e-8)))
    assert(t.contains("Running Time (ms)") && t.contains("Memory (KB)"))
    assert(t.contains("Hit Rate (%)") && t.contains("Relative Error") && t.contains("FPQ"))
  }

  test("variant labels match the paper's column naming") {
    assert(Variant.Exact.label == "" && Variant.Global.label == "-G" && Variant.PP.label == "-PP")
    assert(Variant.NT.label == "-NT" && Variant.GTG.label == "-GTG" && Variant.Adapt.label == "-A")
    assert(Variant.all.size == 6)
  }

  test("Table 2 parameter grid is encoded with the paper's defaults") {
    assert(Params.floors == Seq(3, 5, 7, 9) && Params.floorsDefault == 5)
    assert(Params.objs == Seq(300, 600, 900, 1200, 1500) && Params.objsDefault == 900)
    assert(Params.tis == Seq(5, 10, 15, 20) && Params.tiDefault == 10)
    assert(Params.s2ts == Seq(900, 1100, 1300, 1500, 1700) && Params.s2tDefault == 1300.0)
    assert(Params.eta == 3.0 && Params.qPerFloor == 14)
  }
}
