package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{QueryType, Search}
import repro.crowd.CrowdModel
import repro.exp.{Harness, Instances, Params, TableRunner, Variant}
import repro.indoor.{IndoorSpace, SynthFloorplan}
import repro.sim.{CrowdSim, FlowCounting, RealDataPipeline, TrajectoryGen}
import scala.util.Random

/** One Table 3/4 column: a query type and an algorithm variant. */
final case class Column(label: String, qt: QueryType, variant: Variant)

/** A named workload: a venue, the columns it runs, the number of timed
  * instances and the number of seed-drawn instances checked after the
  * timed loop.
  */
final case class Workload(name: String, mall: Boolean, columns: Seq[Column], instances: Int, checks: Int, exactChecks: Boolean)

object Workload {
  private def cols(qt: QueryType, variants: Variant*): Seq[Column] = {
    val prefix = if (qt == QueryType.FPQ) "FPQ" else "LCPQ"
    variants.map(v => Column(prefix + v.label, qt, v))
  }

  val all: Seq[Workload] = Seq(
    Workload("office-exact", mall = false,
      cols(QueryType.FPQ, Variant.Exact, Variant.Global, Variant.GTG) ++
        cols(QueryType.LCPQ, Variant.Exact, Variant.Global, Variant.GTG),
      instances = 5, checks = 2, exactChecks = true),
    // LCPQ-A is left out: on the mall its latency spans 10 ms to 40 s
    // across the instances of one seed, so no time-bounded run is steady.
    Workload("mall-approx", mall = true,
      cols(QueryType.FPQ, Variant.PP, Variant.NT, Variant.Adapt) ++ cols(QueryType.LCPQ, Variant.PP, Variant.NT),
      instances = 26, checks = 6, exactChecks = false),
  )

  /** Every column some workload runs. */
  val allColumns: Seq[Column] = all.flatMap(_.columns)
}

/** Program inputs. The venue and the timed instances are those of
  * Tables 3–4 (office and crowd-model seed 1, instance seed 101; mall and
  * trajectory seed 11, instance seed 201), so every run times the same
  * queries. The workload seed draws the extra instances that are checked
  * against gold after the timed loop; the program sees only the derived
  * instance seed, never the workload seed itself.
  */
final case class Seeds(space: Long, model: Long, pipeline: Long, world: Long, timed: Long, checked: Long)
object Seeds {
  def apply(w: Workload, seed: Long): Seeds =
    Seeds(space = 1L, model = 1L, pipeline = 11L, world = 1L, timed = if (w.mall) 201L else 101L,
      checked = new Random(seed).nextInt(1 << 30).toLong)
}

/** A built venue: space, crowd model, gold world, instances (the first
  * `timed` are the timed set, the rest the seed-drawn checks) and their gold
  * paths (one per query type and instance), plus the set-up stage times in
  * seconds.
  */
final case class World(
    space: IndoorSpace,
    model: CrowdModel,
    sim: CrowdSim,
    queries: Vector[Instances.Query],
    timed: Int,
    gold: Map[(QueryType, Int), Search.Result],
    stages: Map[String, Double],
)

/** The paper's default setting, passed explicitly. */
object Setting {
  val floors: Int        = Params.floorsDefault
  val objScale: Int      = Params.objsDefault
  val ti: Int            = Params.tiDefault
  val s2t: Double        = Params.s2tDefault
  val horizon: Int       = TableRunner.Opts().maxGrid
}

object Setup {

  private def secs(ns: Long): Double = ns / 1e9

  /** Builds the venue once, recording a span per stage. */
  def build(w: Workload, seeds: Seeds, spark: Option[SparkSession], tracer: Tracer): World = {
    val (space, spaceNs) = tracer.timed("setup.indoor.space") {
      if (w.mall) SynthFloorplan.mall(seeds.pipeline) else SynthFloorplan.office(Setting.floors, seed = seeds.space)
    }
    val (model, modelNs, stageName) =
      if (w.mall) {
        val (b, ns) = tracer.timed("setup.sim.pipeline") {
          RealDataPipeline.build(spark.get, seed = seeds.pipeline, spaceOverride = Some(space))
        }
        (b.model, ns, "sim.pipeline_s")
      } else {
        val (m, ns) = tracer.timed("setup.crowd.model") {
          CrowdModel.synthetic(space, objScale = Setting.objScale, ti = Setting.ti, seed = seeds.model)
        }
        (m, ns, "crowd.model_s")
      }
    val (queries, instNs) = tracer.timed("setup.exp.instances") {
      Instances.generate(space, w.instances, Setting.s2t, seed = seeds.timed) ++
        Instances.generate(space, w.checks, Setting.s2t, seed = seeds.checked)
    }
    val (sim, worldNs) = tracer.timed("setup.sim.world") {
      val s = new CrowdSim(model, seed = seeds.world, deterministic = true)
      s.snapshot(Setting.horizon)
      s
    }
    val (gold, goldNs) = tracer.timed("setup.sim.gold") {
      (for {
        qt <- Seq[QueryType](QueryType.FPQ, QueryType.LCPQ)
        i  <- queries.indices
      } yield (qt, i) -> Harness.gold(model, sim, queries(i), model.t0, qt, Setting.horizon)).toMap
    }
    World(space, model, sim, queries, w.instances, gold, Map(
      "indoor.space_s"  -> secs(spaceNs),
      stageName         -> secs(modelNs),
      "exp.instances_s" -> secs(instNs),
      "sim.world_s"     -> secs(worldNs),
      "sim.gold_s"      -> secs(goldNs),
    ))
  }

  /** Re-runs the mall pipeline stage by stage through the public stage
    * functions, forcing each result, and returns each stage's seconds.
    * Used by traced runs only; the model itself comes from [[build]].
    */
  def pipelineStages(spark: SparkSession, space: IndoorSpace, seeds: Seeds, tracer: Tracer): Map[String, Double] = {
    val parent = tracer.record("setup.sim.pipeline_stages", -1, -1, "", System.nanoTime(), System.nanoTime())
    val span   = 3600.0
    val (traj, trajNs) = tracer.timed("setup.sim.trajectories", parent) {
      val t = TrajectoryGen.generate(spark, space, seed = seeds.pipeline).cache()
      t.count()
      t
    }
    val (pairs, pairsNs) = tracer.timed("setup.sim.pairs", parent) {
      val p = FlowCounting.consecutivePairs(traj).cache()
      p.count()
      p
    }
    val (cross, crossNs) = tracer.timed("setup.sim.crossings", parent) {
      val c = FlowCounting.crossings(spark, space, pairs).cache()
      c.count()
      c
    }
    val (flows, flowsNs) = tracer.timed("setup.sim.flows", parent) {
      val f = FlowCounting.windowedFlows(cross).cache()
      f.count()
      f
    }
    val (_, fitNs) = tracer.timed("setup.sim.lambda_fit", parent) {
      FlowCounting.fitLambdas(flows, (span / 10.0).toLong, scale = 25.0)
    }
    traj.unpersist(); pairs.unpersist(); cross.unpersist(); flows.unpersist()
    Map(
      "sim.trajectories_s" -> secs(trajNs),
      "sim.pairs_s"        -> secs(pairsNs),
      "sim.crossings_s"    -> secs(crossNs),
      "sim.flows_s"        -> secs(flowsNs),
      "sim.lambda_fit_s"   -> secs(fitNs),
    )
  }
}
