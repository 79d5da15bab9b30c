package repro.estimator

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.crowd.CrowdModel

/** The global rectification step (Figure 4 / Eq. 6) as a Spark SQL
  * dataflow: populations and flows are DataFrames, the per-row scaling and
  * Eq. 6 update are joins and aggregations on Catalyst. Iterating
  * [[step]] is the DataFrame counterpart of Algorithm 1, verified in tests
  * both against the sequential [[GlobalEstimator]] and row-for-row against
  * DuckDB via [[repro.Oracle]].
  */
object SqlEstimator {

  /** Populations at the current step as (pid, pop). */
  def popsDf(spark: SparkSession, pops: Seq[Double]): DataFrame = {
    import spark.implicits._
    pops.zipWithIndex.map { case (p, i) => (i, p) }.toDF("pid", "pop")
  }

  /** Expected (un-rectified) flows at grid step g as (src, dst, door, flow). */
  def expectedFlowsDf(spark: SparkSession, model: CrowdModel, g: Int): DataFrame = {
    import spark.implicits._
    model.edges
      .map(e => (e.from, e.to, e.door, model.expectedFlow(e, g)))
      .toDF("src", "dst", "door", "flow")
  }

  /** One grid step: rectify outflows against current populations, then apply
    * Eq. 6. Returns (newPops, rectifiedFlows).
    */
  def step(pops: DataFrame, flows: DataFrame): (DataFrame, DataFrame) = {
    val outSum = flows.groupBy(col("src").as("osrc")).agg(sum("flow").as("out_sum"))
    val scale = pops
      .join(outSum, col("pid") === col("osrc"), "left")
      .select(
        col("pid"),
        col("pop"),
        when(coalesce(col("out_sum"), lit(0.0)) > col("pop") && col("out_sum") > 0,
          col("pop") / col("out_sum")).otherwise(lit(1.0)).as("scale"),
      )
    val rect = flows
      .join(scale.select(col("pid").as("ssrc"), col("scale")), col("src") === col("ssrc"))
      .select(col("src"), col("dst"), col("door"), (col("flow") * col("scale")).as("flow"))
    val outBy = rect.groupBy(col("src").as("gsrc")).agg(sum("flow").as("outflow"))
    val inBy  = rect.groupBy(col("dst").as("gdst")).agg(sum("flow").as("inflow"))
    val newPops = pops
      .join(outBy, col("pid") === col("gsrc"), "left")
      .join(inBy, col("pid") === col("gdst"), "left")
      .select(
        col("pid"),
        greatest(lit(0.0),
          col("pop") - coalesce(col("outflow"), lit(0.0)) + coalesce(col("inflow"), lit(0.0))).as("pop"),
      )
    (newPops, rect)
  }

  /** Populations after `steps` grid steps, as (pid, pop). Each step's frame
    * is localCheckpoint-free but small; the loop collects between steps to
    * keep plans bounded (this is a substrate validation path, not the
    * per-query estimator).
    */
  def derive(spark: SparkSession, model: CrowdModel, steps: Int): DataFrame = {
    var cur: Seq[Double] = model.initialPop
    for (g <- 1 to steps) {
      val (next, _) = step(popsDf(spark, cur), expectedFlowsDf(spark, model, g))
      val collected = next.collect().map(r => r.getInt(0) -> r.getDouble(1)).toMap
      cur = (0 until model.space.numPartitions).map(collected)
    }
    popsDf(spark, cur)
  }

  /** DuckDB SQL equivalent of the rectified flows of [[step]] over input
    * tables `pops(pid, pop)` and `flows(src, dst, door, flow)`. Used by the
    * Oracle tests.
    */
  val rectifySql: String =
    """
      |WITH outsum AS (
      |  SELECT src AS osrc, SUM(CAST(flow AS DOUBLE)) AS out_sum FROM flows GROUP BY src
      |), scale AS (
      |  SELECT p.pid,
      |         CASE WHEN COALESCE(o.out_sum, 0) > CAST(p.pop AS DOUBLE) AND o.out_sum > 0
      |              THEN CAST(p.pop AS DOUBLE) / o.out_sum ELSE 1.0 END AS scale
      |  FROM pops p LEFT JOIN outsum o ON CAST(p.pid AS INT) = CAST(o.osrc AS INT)
      |)
      |SELECT f.src AS src, f.dst AS dst, f.door AS door,
      |       CAST(f.flow AS DOUBLE) * s.scale AS flow
      |FROM flows f JOIN scale s ON CAST(f.src AS INT) = CAST(s.pid AS INT)
      |""".stripMargin

  /** DuckDB SQL equivalent of the new populations of [[step]]: Eq. 6 over
    * the flows of [[rectifySql]].
    */
  val newPopSql: String =
    s"""
      |WITH rect AS ($rectifySql),
      |   outs AS (SELECT src, SUM(flow) AS outflow FROM rect GROUP BY src),
      |   ins  AS (SELECT dst, SUM(flow) AS inflow  FROM rect GROUP BY dst)
      |SELECT p.pid AS pid,
      |       GREATEST(0.0, CAST(p.pop AS DOUBLE) - COALESCE(o.outflow, 0) + COALESCE(i.inflow, 0)) AS pop
      |FROM pops p
      |LEFT JOIN outs o ON CAST(p.pid AS INT) = CAST(o.src AS INT)
      |LEFT JOIN ins  i ON CAST(p.pid AS INT) = CAST(i.dst AS INT)
      |""".stripMargin
}
