package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.{Adaptive, Gtg, QueryType, Search}
import repro.crowd.ModelState
import repro.estimator.{GlobalEstimator, LocalEstimator, NTEstimator, PopulationEstimator}
import repro.exp.{Harness, Instances, Params, Variant}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** The crowd-aware query benchmark: one workload per process.
  *
  * Usage: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>`
  *
  * A single client sends queries in a closed loop: every (instance, column)
  * of the workload in turn, one `Harness.runOnce` call each, until at least
  * two full passes are done and `--seconds` have passed. Accuracy and the
  * deterministic counters come from the first pass; latencies from every
  * query. With `--trace 1` each query runs twice back to back, plain and
  * with the benchmark's own timers around every layer call; the per-layer
  * metrics come from the traced copy and the difference between the two
  * is the tracing overhead. The last line of standard output is one JSON
  * object with the result.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: Path)

  /** Latency percentiles come from exactly this many passes over the timed
    * queries, so every run computes them over the same samples; the loop
    * runs at least this many passes.
    */
  private val LatencyPasses = 2

  /** Time split of one traced query, in nanoseconds. */
  final case class Split(total: Long, state: Long, call: Long, est: Long, lookups: Long, clamped: Long,
      maxStep: Int, allocBytes: Long, gcMs: Long)

  /** One executed query. `res` is null when the call threw. */
  final case class Run(inst: Int, col: Column, pass: Int, ns: Long, res: Search.Result, split: Option[Split])

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val w = Workload.all.find(_.name == args.workload).getOrElse {
      System.err.println(s"unknown workload ${args.workload}; known: ${Workload.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    Files.createDirectories(args.out)
    val spark = if (w.mall) Some(startSpark(args.out)) else None
    val code =
      try { run(w, args, spark); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
      finally spark.foreach(_.stop())
    System.out.flush()
    sys.exit(code)
  }

  private def parse(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, { System.err.println(s"missing --$k"); sys.exit(2) })
    Args(need("workload"), need("seed").toLong, need("seconds").toInt, need("trace") == "1", Paths.get(need("out")))
  }

  private def startSpark(out: Path): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", out.resolve("spark-warehouse").toString)
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private def gcMillis: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** `Harness.runOnce` with the benchmark's timers around each layer call. */
  private def tracedQuery(world: World, col: Column, q: Instances.Query, qid: Int, tracer: Tracer): (Search.Result, Split) = {
    val model = world.model
    val alloc0 = threads.getCurrentThreadAllocatedBytes
    val gc0    = gcMillis
    val t0     = System.nanoTime()
    val (res, stateNs, callNs, timed) = col.variant match {
      case Variant.Adapt =>
        val c0 = System.nanoTime()
        val r  = Adaptive.run(model, world.sim, q.ps, q.pt, model.t0, col.qt, Setting.horizon)
        (r, 0L, System.nanoTime() - c0, None)
      case v =>
        val s0 = System.nanoTime()
        val est: PopulationEstimator = v match {
          case Variant.Exact  => new LocalEstimator(new ModelState(model), exactUpstream = true)
          case Variant.Global => new GlobalEstimator(new ModelState(model))
          case Variant.PP     => new LocalEstimator(new ModelState(model), exactUpstream = false)
          case Variant.NT     => new NTEstimator(new LocalEstimator(new ModelState(model), exactUpstream = false), Params.eta)
          case Variant.GTG    => new GlobalEstimator(new ModelState(model))
          case Variant.Adapt  => sys.error("unreachable")
        }
        val te = new TimedEstimator(est, Setting.horizon)
        val c0 = System.nanoTime()
        val r =
          if (v == Variant.GTG) Gtg.run(te, q.ps, q.pt, model.t0, col.qt, Setting.horizon)
          else Search.run(te, q.ps, q.pt, model.t0, col.qt, Setting.horizon)
        (r, c0 - s0, System.nanoTime() - c0, Some(te))
    }
    val t1    = System.nanoTime()
    val alloc = threads.getCurrentThreadAllocatedBytes - alloc0
    val root  = tracer.record("query", -1, qid, col.label, t0, t1)
    if (stateNs > 0) tracer.record("crowd.state_build", root, qid, col.label, t0, t0 + stateNs)
    val callName = if (col.variant == Variant.Adapt) "core.adaptive" else "core.search"
    val callId   = tracer.record(callName, root, qid, col.label, t1 - callNs, t1, if (col.variant == Variant.Adapt) res.path.size.max(1).toLong - 1 else 1)
    timed.foreach(te => tracer.record("estimator.populationAt", callId, qid, col.label, t1 - callNs, t1 - callNs + te.nanos, te.lookups))
    val split = Split(t1 - t0, stateNs, callNs, timed.map(_.nanos).getOrElse(0L), timed.map(_.lookups).getOrElse(0L),
      timed.map(_.clamped).getOrElse(0L), timed.map(_.maxStep).getOrElse(0), alloc, gcMillis - gc0)
    (res, split)
  }

  private def primary(qt: QueryType, r: Search.Result): Double = Harness.primary(qt, r.cost)

  private def relErr(col: Column, r: Search.Result, gold: Search.Result): Option[Double] = {
    val pg = primary(col.qt, gold)
    if (r.found && gold.found && pg > 0) Some(math.abs(primary(col.qt, r) - pg) / pg) else None
  }

  /** Correctness rules; returns the violations of one query. */
  private def violations(w: Workload, world: World, run: Run, first: collection.Map[(Int, String), Search.Result]): Seq[String] = {
    val r    = run.res
    val gold = world.gold((run.col.qt, run.inst))
    val out  = ArrayBuffer.empty[String]
    if (!r.found) out += "no path found"
    else {
      if (!primary(run.col.qt, r).isFinite) out += "non-finite cost"
      first.get((run.inst, run.col.label)).foreach { f =>
        if (f.doorSeq != r.doorSeq || f.cost != r.cost || f.stats.popDerivations != r.stats.popDerivations ||
            f.stats.pushes != r.stats.pushes)
          out += "repeat of the same query gave a different path or counters"
      }
      if (w.exactChecks) {
        if (r.doorSeq != gold.doorSeq) out += s"door sequence ${r.doorSeq.mkString(",")} differs from gold ${gold.doorSeq.mkString(",")}"
        relErr(run.col, r, gold).filter(_ > 1e-9).foreach(e => out += s"relative error $e above 1e-9")
        if (run.col.variant == Variant.Global) {
          val exactLabel = run.col.label.stripSuffix(Variant.Global.label)
          first.get((run.inst, exactLabel)).foreach { e =>
            if (e.doorSeq != r.doorSeq || primary(run.col.qt, e) != primary(run.col.qt, r))
              out += s"differs from $exactLabel on the same instance"
          }
        }
      }
    }
    out.toSeq
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    if (n == 0) 0.0 else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest order statistic with at least ten samples beyond it:
    * (value, percentile, samples).
    */
  private def tail(xs: Seq[Double]): (Double, Double, Int) = {
    val s = xs.sorted
    val n = s.size
    if (n < 11) (s.lastOption.getOrElse(0.0), 100.0, n)
    else (s(n - 11), 100.0 * (n - 10) / n, n)
  }

  private def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  private def run(w: Workload, args: Args, spark: Option[SparkSession]): Unit = {
    val seeds  = Seeds(w, args.seed)
    val tracer = new Tracer(args.trace)
    val cols   = w.columns
    println(s"== ${w.name}  seed=${args.seed}  seconds=${args.seconds}  trace=${if (args.trace) 1 else 0} ==")
    println(s"   setting: floors=${Setting.floors} |o|=${Setting.objScale} TI=${Setting.ti}s s2t=${Setting.s2t}m " +
      s"eta=${Params.eta} horizon=${Setting.horizon} deterministic world, ${w.instances} timed + ${w.checks} checked instances x ${cols.size} columns " +
      s"(${cols.map(_.label).mkString(" ")}), one closed-loop client")

    // ---- set-up, three times; medians are reported
    val reps     = 3
    val stageRuns = ArrayBuffer.empty[Map[String, Double]]
    val setupS   = ArrayBuffer.empty[Double]
    val failures = ArrayBuffer.empty[String]
    var world: World = null
    for (_ <- 0 until reps) {
      System.gc()
      val t0 = System.nanoTime()
      val wd = Setup.build(w, seeds, spark, tracer)
      setupS += (System.nanoTime() - t0) / 1e9
      stageRuns += wd.stages
      if (world != null && (world.queries != wd.queries ||
          world.gold.view.mapValues(_.doorSeq).toMap != wd.gold.view.mapValues(_.doorSeq).toMap))
        failures += "set-up is not deterministic: instances or gold paths changed between repetitions"
      world = wd
    }
    val stageMedians = world.stages.keys.map(k => k -> median(stageRuns.map(_(k)).toSeq)).toMap
    val stages = stageMedians ++
      (if (args.trace && w.mall) Setup.pipelineStages(spark.get, world.space, seeds, tracer) else Map.empty)
    println(f"   set-up: ${setupS.map(s => f"$s%.3f").mkString(", ")} s over $reps repetitions; medians: " +
      stageMedians.toSeq.sortBy(_._1).map { case (k, v) => f"$k=$v%.3f" }.mkString(" "))

    // ---- warm-up (untimed): the timed queries in order for at least three
    // seconds and at least once per column, so the JIT has compiled them
    val warmEnd = System.nanoTime() + 3000000000L
    var k       = 0
    while (k < cols.size || System.nanoTime() < warmEnd) {
      val (q, c) = (world.queries((k / cols.size) % world.timed), cols(k % cols.size))
      Harness.runOnce(world.model, world.sim, c.variant, q, world.model.t0, c.qt, Setting.horizon)
      if (args.trace) tracedQuery(world, c, q, -1, new Tracer(false))
      k += 1
    }
    System.gc()

    // ---- timed closed loop
    val traced = ArrayBuffer.empty[Run]
    val plain  = ArrayBuffer.empty[Run]
    val paired = ArrayBuffer.empty[(Long, Long)] // (plain ns, traced ns) of the same query
    val first  = mutable.HashMap.empty[(Int, String), Search.Result]
    val perPass = world.timed * cols.size
    var failed = 0
    var attempted = 0
    /** Runs one query; a throw is recorded as a failure and gives null. */
    def attempt(col: Column, inst: Int)(body: => Search.Result): Search.Result =
      try body
      catch { case NonFatal(e) => failures += s"${col.label} instance $inst threw $e"; null }
    def account(r: Run): Unit = {
      attempted += 1
      val v = if (r.res == null) Nil else violations(w, world, r, first)
      if (r.res == null || v.nonEmpty) failed += 1
      if (v.nonEmpty) {
        val q = world.queries(r.inst)
        failures += s"${r.col.label} instance ${r.inst} (ps=${q.ps}, pt=${q.pt}, pass ${r.pass}): ${v.mkString("; ")}"
      }
      if (r.pass == 0 && r.res != null && !first.contains((r.inst, r.col.label))) first((r.inst, r.col.label)) = r.res
    }
    val loopStart = System.nanoTime()
    val deadline  = loopStart + args.seconds * 1000000000L
    var i         = 0
    while (i < LatencyPasses * perPass || System.nanoTime() < deadline) {
      val inst = (i % perPass) / cols.size
      val col  = cols(i % cols.size)
      val q    = world.queries(inst)
      val pass = i / perPass
      // traced runs time every query with tracing and every fourth one also
      // without, back to back, for the tracing overhead
      val p =
        if (args.trace && i % 4 != 0) None
        else {
          val t0  = System.nanoTime()
          val res = attempt(col, inst)(Harness.runOnce(world.model, world.sim, col.variant, q, world.model.t0, col.qt, Setting.horizon))
          val r   = Run(inst, col, pass, System.nanoTime() - t0, res, None)
          plain += r
          account(r)
          Some(r)
        }
      if (args.trace) {
        var split: Option[Split] = None
        val res = attempt(col, inst) { val (r, s) = tracedQuery(world, col, q, i, tracer); split = Some(s); r }
        val tr  = Run(inst, col, pass, split.map(_.total).getOrElse(0L), res, split)
        account(tr)
        traced += tr
        p.filter(pr => pr.res != null && tr.res != null).foreach(pr => paired += ((pr.ns, tr.ns)))
      }
      i += 1
    }
    val loopS = (System.nanoTime() - loopStart) / 1e9

    // ---- the seed-drawn instances: every column once, checked, not timed
    val checkStart = System.nanoTime()
    for (inst <- world.timed until world.queries.size; col <- cols) {
      val res = attempt(col, inst)(Harness.runOnce(world.model, world.sim, col.variant, world.queries(inst), world.model.t0, col.qt, Setting.horizon))
      account(Run(inst, col, 0, 0L, res, None))
    }
    println(f"   seed-drawn checks: ${(world.queries.size - world.timed) * cols.size} queries on instances " +
      f"${world.timed}..${world.queries.size - 1} in ${(System.nanoTime() - checkStart) / 1e9}%.2f s (not timed)")
    val failedFrac = ratio(failed, attempted)

    // ---- accuracy from the first pass
    val firstPass = (if (args.trace) traced else plain).filter(r => r.pass == 0 && r.res != null)
    val scored    = firstPass.flatMap(r => relErr(r.col, r.res, world.gold((r.col.qt, r.inst))))
    val hits      = firstPass.count(r => r.res.found && r.res.doorSeq == world.gold((r.col.qt, r.inst)).doorSeq)
    val hitPct    = 100.0 * ratio(hits, firstPass.size)
    val meanErr   = mean(scored)
    val memKb     = mean(firstPass.map(_.res.stats.memKB))

    println(s"   deterministic counters (first pass): mem_kb=$memKb hit_pct=$hitPct rel_err_plus1=${1.0 + meanErr}")
    val metrics = ArrayBuffer.empty[(String, Double, String)]
    if (!args.trace) {
      def ms(qt: QueryType) = plain.filter(r => r.pass < LatencyPasses && r.col.qt == qt).map(_.ns / 1e6).toSeq
      val (fpqTail, fpqPct, fpqN)    = tail(ms(QueryType.FPQ))
      val (lcpqTail, lcpqPct, lcpqN) = tail(ms(QueryType.LCPQ))
      metrics ++= Seq(
        ("setup_s", median(setupS.toSeq), "s"),
        ("fpq_p50_ms", median(ms(QueryType.FPQ)), "ms"),
        ("fpq_tail_ms", fpqTail, "ms"),
        ("lcpq_p50_ms", median(ms(QueryType.LCPQ)), "ms"),
        ("lcpq_tail_ms", lcpqTail, "ms"),
        ("queries_per_s", plain.size / loopS, "1/s"),
        ("mem_kb", memKb, "KB"),
        ("hit_pct", hitPct, "%"),
        ("rel_err_plus1", 1.0 + meanErr, "ratio"),
        ("ok_pct", 100.0 * (1.0 - failedFrac), "%"),
      )
      println(f"   tails: fpq_tail_ms is p$fpqPct%.1f of $fpqN samples, lcpq_tail_ms is p$lcpqPct%.1f of $lcpqN samples " +
        s"(10 beyond each; latencies from the first $LatencyPasses passes)")
      println(f"   loop: ${plain.size} queries in $loopS%.2f s, ${plain.size.toDouble / perPass}%.2f passes over $perPass (instance, column) pairs")
      println("   mean ms by column: " + cols.map(c => f"${c.label}:${mean(plain.filter(_.col == c).map(_.ns / 1e6))}%.1f").mkString(" "))
      println(f"   rel_err=$meanErr%.6g (rel_err_plus1 = 1 + rel_err)  failed_frac=$failedFrac%.6g ($failed of $attempted)")
      val adapt0 = firstPass.filter(_.col.variant == Variant.Adapt)
      if (adapt0.nonEmpty) {
        val below = adapt0.count(r => r.res.found && primary(r.col.qt, r.res) < primary(r.col.qt, world.gold((r.col.qt, r.inst))) * (1 - 1e-9))
        println(s"   adaptive realized cost below gold: $below of ${adapt0.size} (possible: costs are not FIFO in time, and gold stops deriving at the horizon)")
      }
    } else {
      metrics ++= layerMetrics(world, traced.toSeq, paired.toSeq, stages)
      println(f"   loop: ${traced.size} traced queries, ${paired.size} of them also plain, in $loopS%.2f s; failed_frac=$failedFrac%.6g ($failed of $attempted)")
      printSplit(w, traced.toSeq)
      val tracePath = args.out.resolve(s"trace-${w.name}-seed${args.seed}.jsonl")
      tracer.write(tracePath)
      println(s"   trace: ${tracer.size} spans written to $tracePath")
    }

    if (failures.nonEmpty) {
      println(s"   FAILURES (${failures.size}, first 20):")
      failures.distinct.take(20).foreach(f => println(s"     - $f"))
    }
    println(s"   metrics (${w.name}):")
    metrics.foreach { case (n, v, u) => println(f"     $n%-34s $v%16.6f $u") }

    val correct = failed == 0 && failures.isEmpty
    val body = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) sys.error(s"non-finite metric $v") else v.toString

  /** Per-layer metrics from the traced queries. */
  private def layerMetrics(world: World, traced: Seq[Run], paired: Seq[(Long, Long)], stages: Map[String, Double]): Seq[(String, Double, String)] = {
    val ok      = traced.filter(r => r.res != null && r.split.isDefined)
    val pass0   = ok.filter(_.pass == 0)
    val nonA    = ok.filter(_.col.variant != Variant.Adapt)
    val adapt   = ok.filter(_.col.variant == Variant.Adapt)
    def sp(r: Run) = r.split.get
    def ms(ns: Long) = ns / 1e6
    def searchNs(r: Run) = if (r.col.variant == Variant.Adapt) 0L else sp(r).call - sp(r).est
    def otherNs(r: Run)  = sp(r).total - sp(r).state - sp(r).est - searchNs(r)
    val lookups0 = pass0.map(r => sp(r).lookups.toDouble)
    val pop0     = pass0.map(_.res.stats.popDerivations.toDouble)
    val estNs    = nonA.map(r => sp(r).est.toDouble).sum
    val callNs   = nonA.map(r => sp(r).call.toDouble).sum
    val resync   = adapt.map(r => sp(r).call / 1e6 - r.res.stats.millis)
    def g(k: String) = stages.getOrElse(k, 0.0)
    val aggregates = Seq(
      ("estimator.ms", mean(ok.map(r => ms(sp(r).est))), "ms"),
      ("estimator.share", ratio(estNs, callNs), "ratio"),
      ("estimator.lookups", mean(lookups0), "count"),
      ("estimator.pop_derivations", mean(pop0), "count"),
      ("estimator.flow_derivations", mean(pass0.map(_.res.stats.flowDerivations.toDouble)), "count"),
      ("estimator.derivations_per_lookup", ratio(pass0.filter(_.col.variant != Variant.Adapt).map(_.res.stats.popDerivations.toDouble).sum, lookups0.sum), "ratio"),
      ("estimator.max_step", pass0.map(r => sp(r).maxStep.toDouble).maxOption.getOrElse(0.0), "step"),
      ("estimator.clamped_lookups", mean(pass0.map(r => sp(r).clamped.toDouble)), "count"),
      ("indoor.space_s", g("indoor.space_s"), "s"),
      ("crowd.model_s", g("crowd.model_s"), "s"),
      ("crowd.state_build_ms", mean(ok.map(r => ms(sp(r).state))), "ms"),
      ("core.search_ms", mean(ok.map(r => ms(searchNs(r)))), "ms"),
      ("core.pushes", mean(pass0.map(_.res.stats.pushes.toDouble)), "count"),
      ("core.settled", mean(pass0.map(_.res.stats.settled.toDouble)), "count"),
      ("core.queue_peak", mean(pass0.map(_.res.stats.queuePeak.toDouble)), "count"),
      ("core.settled_per_push", ratio(pass0.map(_.res.stats.settled.toDouble).sum, pass0.map(_.res.stats.pushes.toDouble).sum), "ratio"),
      ("core.path_doors", mean(pass0.map(_.res.doorSeq.size.toDouble)), "count"),
      ("core.replans", mean(adapt.filter(_.pass == 0).map(r => (r.res.path.size - 1).toDouble)), "count"),
      ("core.resync_ms", mean(resync), "ms"),
      ("core.resync_share", ratio(resync.sum, adapt.map(r => sp(r).call / 1e6).sum), "ratio"),
      ("sim.pipeline_s", g("sim.pipeline_s"), "s"),
      ("sim.trajectories_s", g("sim.trajectories_s"), "s"),
      ("sim.pairs_s", g("sim.pairs_s"), "s"),
      ("sim.crossings_s", g("sim.crossings_s"), "s"),
      ("sim.flows_s", g("sim.flows_s"), "s"),
      ("sim.lambda_fit_s", g("sim.lambda_fit_s"), "s"),
      ("sim.world_s", g("sim.world_s"), "s"),
      ("sim.world_steps", world.sim.derivedSteps.toDouble, "step"),
      ("sim.gold_ms", 1000.0 * g("sim.gold_s") / world.gold.size, "ms"),
      ("exp.instances_s", g("exp.instances_s"), "s"),
      ("exp.other_ms", mean(ok.map(r => ms(otherNs(r)))), "ms"),
      ("exp.trace_overhead", ratio(paired.map(_._2.toDouble).sum, paired.map(_._1.toDouble).sum) - 1.0, "ratio"),
      ("jvm.alloc_mb", mean(ok.map(r => sp(r).allocBytes / 1048576.0)), "MB"),
      ("jvm.gc_ms", mean(ok.map(r => sp(r).gcMs.toDouble)), "ms"),
    )
    val perColumn = Workload.allColumns.flatMap { c =>
      val rs  = ok.filter(_.col.label == c.label)
      val rs0 = rs.filter(_.pass == 0)
      Seq(
        (s"exp.col_ms.${c.label}", mean(rs.map(r => ms(r.ns))), "ms"),
        (s"estimator.pop_derivations.${c.label}", mean(rs0.map(_.res.stats.popDerivations.toDouble)), "count"),
        (s"core.pushes.${c.label}", mean(rs0.map(_.res.stats.pushes.toDouble)), "count"),
      ) ++ (if (c.variant == Variant.Adapt) Nil else Seq(
        (s"estimator.ms.${c.label}", mean(rs.map(r => ms(sp(r).est))), "ms"),
        (s"core.search_ms.${c.label}", mean(rs.map(r => ms(searchNs(r)))), "ms"),
      ))
    }
    aggregates ++ perColumn
  }

  /** Per-column time split of the traced queries; the parts sum to the
    * traced latency by construction, and the check is printed.
    */
  private def printSplit(w: Workload, traced: Seq[Run]): Unit = {
    println("   traced split per column, mean ms per query (state + estimator + search + other = latency; -A: adaptive = replan + resync):")
    println(f"     ${"column"}%-10s ${"n"}%4s ${"state"}%9s ${"estimator"}%10s ${"search"}%9s ${"other"}%9s ${"latency"}%10s ${"replan"}%9s ${"resync"}%9s ${"sum-lat"}%9s")
    for (c <- w.columns) {
      val rs = traced.filter(r => r.col.label == c.label && r.res != null && r.split.isDefined)
      if (rs.nonEmpty) {
        def m(f: Run => Double) = rs.map(f).sum / rs.size
        val state  = m(r => r.split.get.state / 1e6)
        val est    = m(r => r.split.get.est / 1e6)
        val search = m(r => if (c.variant == Variant.Adapt) 0.0 else (r.split.get.call - r.split.get.est) / 1e6)
        val lat    = m(r => r.split.get.total / 1e6)
        val other  = lat - state - est - search
        val replan = if (c.variant == Variant.Adapt) m(_.res.stats.millis) else 0.0
        val resync = if (c.variant == Variant.Adapt) m(r => r.split.get.call / 1e6 - r.res.stats.millis) else 0.0
        println(f"     ${c.label}%-10s ${rs.size}%4d $state%9.3f $est%10.3f $search%9.3f $other%9.3f $lat%10.3f $replan%9.3f $resync%9.3f ${state + est + search + other - lat}%9.2g")
      }
    }
  }
}
