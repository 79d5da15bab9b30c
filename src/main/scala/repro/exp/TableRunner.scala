package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.QueryType
import repro.crowd.CrowdModel
import repro.indoor.SynthFloorplan
import repro.sim.{CrowdSim, RealDataPipeline}

/** Shared driver for the two reproduced evaluation tables. Benchmarks
  * (`bench/`) and spark-submit jobs (`jobs/`) both call into this.
  */
object TableRunner {

  /** Knobs. The paper runs 100 instances × 10 repetitions; the defaults here
    * are scaled down for CI-sized runs and overridable via env
    * (BENCH_INSTANCES / BENCH_REPS).
    */
  final case class Opts(
      instances: Int = sys.env.getOrElse("BENCH_INSTANCES", "12").toInt,
      reps: Int = sys.env.getOrElse("BENCH_REPS", "2").toInt,
      floors: Int = Params.floorsDefault,
      objScale: Int = Params.objsDefault,
      ti: Int = Params.tiDefault,
      s2t: Double = Params.s2tDefault,
      seed: Long = 1L,
      /** The gold world: expectation dynamics by default — this mirrors the
        * paper's gold standard, whose exact-search errors are ≈1e-8, i.e.
        * its simulated trajectories track the expected flows. Set
        * BENCH_WORLD=stochastic for a Poisson-realized world.
        */
      deterministicWorld: Boolean = !sys.env.get("BENCH_WORLD").contains("stochastic"),
      /** Population-derivation horizon in grid steps (720 = 2 h at TI=10 s,
        * far beyond any returned path's travel time).
        */
      maxGrid: Int = 720,
  )

  final case class TableResult(title: String, cols: Seq[(String, Harness.Metrics)]) {
    def rendered: String = Harness.renderTable(title, cols)
  }

  private def evaluateAll(model: CrowdModel, sim: CrowdSim, queries: Seq[Instances.Query], opts: Opts): Seq[(String, Harness.Metrics)] =
    for {
      (qt, prefix) <- Seq((QueryType.FPQ, "FPQ"), (QueryType.LCPQ, "LCPQ"))
      golds         = queries.map(q => Harness.gold(model, sim, q, model.t0, qt, opts.maxGrid))
      variant      <- Variant.all
    } yield {
      val label = prefix + variant.label
      System.gc() // stabilize timings: don't charge one variant with another's garbage
      val m = Harness.evaluate(model, sim, variant, qt, queries, golds,
        tq = model.t0, maxGrid = opts.maxGrid, reps = opts.reps)
      Console.err.println(f"[bench] $label%-10s time=${m.timeMs}%9.1f ms  mem=${m.memKB}%9.1f KB  hit=${m.hitRate}%5.1f%%  err=${m.relErr}%.4g")
      label -> m
    }

  /** Table 3: synthetic office, default setting (5 floors, |o|=900, TI=10 s,
    * s2t=1300 m).
    */
  def table3(opts: Opts = Opts()): TableResult = {
    val space   = SynthFloorplan.office(opts.floors, seed = opts.seed)
    val model   = CrowdModel.synthetic(space, objScale = opts.objScale, ti = opts.ti, seed = opts.seed)
    val sim     = new CrowdSim(model, seed = opts.seed, deterministic = opts.deterministicWorld)
    val queries = Instances.generate(space, opts.instances, opts.s2t, seed = opts.seed + 100)
    TableResult(
      s"Table 3 — FPQ & LCPQ on synthetic data (floors=${opts.floors}, |o|=${opts.objScale}, TI=${opts.ti}s, s2t=${opts.s2t}m, " +
        s"${opts.instances} instances x ${opts.reps} reps)",
      evaluateAll(model, sim, queries, opts))
  }

  /** Table 4: the "real" mall — synthetic-real substitute built through the
    * full trajectory → flow-counting → λ-fitting pipeline.
    */
  def table4(spark: SparkSession, opts: Opts = Opts()): TableResult = {
    val built = RealDataPipeline.build(spark, seed = opts.seed + 10)
    Console.err.println(
      f"[bench] mall pipeline: ${built.records} records, disconnected=${built.disconnectedFraction * 100}%.1f%%, " +
        s"${built.space.numPartitions} partitions, ${built.space.numDoors} doors")
    val model   = built.model
    val sim     = new CrowdSim(model, seed = opts.seed, deterministic = opts.deterministicWorld)
    val queries = Instances.generate(built.space, opts.instances, opts.s2t, seed = opts.seed + 200)
    TableResult(
      s"Table 4 — FPQ & LCPQ on (simulated) real mall data (977 partitions, 1613 doors, s2t=${opts.s2t}m, " +
        s"${opts.instances} instances x ${opts.reps} reps)",
      evaluateAll(model, sim, queries, opts))
  }
}
