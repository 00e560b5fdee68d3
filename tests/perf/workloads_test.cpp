// Shape tests: the virtual-time replays must reproduce the paper's
// qualitative findings (who wins, where the crossovers fall) — the
// contract stated in DESIGN.md's experiment index.
#include "mdtask/perf/workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace mdtask::perf {
namespace {

/// Synthetic kernel costs standing in for the paper's Python pipelines
/// (python_pipeline_costs() magnitudes) so shape tests don't depend on
/// host calibration timing. The tree constants put the tree-vs-cdist
/// crossover between the 262k and 524k datasets as in Sec. 4.3.4.
KernelCosts test_costs() {
  KernelCosts c;
  c.hausdorff_unit = 5e-8;
  c.cdist_element = 1.6e-8;
  c.tree_build_point = 4.5e-5;
  c.tree_query_point_log = 6.4e-6;
  c.cc_edge = 6e-7;
  c.merge_vertex = 9e-7;
  c.rmsd2d_atom_naive = 6e-9;
  c.rmsd2d_atom_optimized = 1.2e-9;
  return c;
}

/// Paper-style Wrangler allocation: 32 cores per node (figure labels
/// "32/1 64/2 128/4 256/8" and "16/1 64/2 256/8").
sim::ClusterSpec wrangler_cores(std::size_t cores) {
  return sim::ClusterSpec{sim::wrangler(), std::max<std::size_t>(1, cores / 32),
                          cores};
}

// ---- Figs. 2-3 ----

TEST(ThroughputShapeTest, DaskBeatsSparkBeatsRp) {
  const auto cluster = wrangler_cores(24);
  const std::size_t n = 8192;
  const auto dask = simulate_throughput(dask_model(), cluster, n);
  const auto spark = simulate_throughput(spark_model(), cluster, n);
  const auto rp = simulate_throughput(rp_model(), cluster, n);
  EXPECT_GT(dask.tasks_per_s, spark.tasks_per_s);
  EXPECT_GT(spark.tasks_per_s, rp.tasks_per_s);
}

TEST(ThroughputShapeTest, RpPlateausBelow100TasksPerSecond) {
  for (std::size_t nodes : {1u, 2u, 4u}) {
    const auto rp = simulate_throughput(
        rp_model(), sim::ClusterSpec{sim::wrangler(), nodes}, 10000);
    EXPECT_LT(rp.tasks_per_s, 100.0) << nodes << " nodes (Fig. 3)";
  }
}

TEST(ThroughputShapeTest, RpFailsAt32kTasks) {
  const auto rp =
      simulate_throughput(rp_model(), wrangler_cores(24), 32768);
  EXPECT_FALSE(rp.feasible);
  const auto rp16k =
      simulate_throughput(rp_model(), wrangler_cores(24), 16384);
  EXPECT_TRUE(rp16k.feasible);
}

TEST(ThroughputShapeTest, DaskScalesNearLinearlyWithNodes) {
  const auto one = simulate_throughput(
      dask_model(), sim::ClusterSpec{sim::wrangler(), 1}, 100000);
  const auto four = simulate_throughput(
      dask_model(), sim::ClusterSpec{sim::wrangler(), 4}, 100000);
  EXPECT_GT(four.tasks_per_s, 3.0 * one.tasks_per_s);
}

TEST(ThroughputShapeTest, SparkOrderOfMagnitudeBelowDaskMultiNode) {
  const sim::ClusterSpec cluster{sim::wrangler(), 4};
  const auto dask = simulate_throughput(dask_model(), cluster, 100000);
  const auto spark = simulate_throughput(spark_model(), cluster, 100000);
  EXPECT_GT(dask.tasks_per_s, 5.0 * spark.tasks_per_s);
}

TEST(ThroughputShapeTest, SmallTaskCountsDominatedByStartup) {
  const auto cluster = wrangler_cores(24);
  const auto spark16 = simulate_throughput(spark_model(), cluster, 16);
  EXPECT_LT(spark16.makespan_s, 2.0 * spark_model().startup_s);
}

// ---- Figs. 4-5 ----

TEST(PsaShapeTest, AllFrameworksScaleSixFoldFrom16To256Cores) {
  const PsaWorkload workload{128, 3341, 102};
  const auto costs = test_costs();
  for (const auto& model :
       {mpi_model(), spark_model(), dask_model(), rp_model()}) {
    const auto t16 =
        simulate_psa(model, wrangler_cores(16), workload, costs);
    const auto t256 =
        simulate_psa(model, wrangler_cores(256), workload, costs);
    const double speedup = t16.makespan_s / t256.makespan_s;
    EXPECT_GT(speedup, 3.0) << model.name << " (paper: ~6x)";
    EXPECT_LT(speedup, 16.0) << model.name;
  }
}

TEST(PsaShapeTest, MpiFastestButFrameworksComparable) {
  const PsaWorkload workload{128, 13364, 102};
  const auto costs = test_costs();
  const auto cluster = wrangler_cores(64);
  const auto mpi = simulate_psa(mpi_model(), cluster, workload, costs);
  const auto spark = simulate_psa(spark_model(), cluster, workload, costs);
  const auto dask = simulate_psa(dask_model(), cluster, workload, costs);
  EXPECT_LE(mpi.makespan_s, spark.makespan_s);
  EXPECT_LE(mpi.makespan_s, dask.makespan_s);
  // "similar performance" (Sec. 4.2): within ~2x of each other.
  EXPECT_LT(spark.makespan_s, 2.0 * mpi.makespan_s);
  EXPECT_LT(dask.makespan_s, 2.0 * mpi.makespan_s);
}

TEST(PsaShapeTest, RuntimeScalesWithTrajectorySizeAndCount) {
  const auto costs = test_costs();
  const auto cluster = wrangler_cores(64);
  const auto small = simulate_psa(mpi_model(), cluster,
                                  {128, 3341, 102}, costs);
  const auto large = simulate_psa(mpi_model(), cluster,
                                  {128, 13364, 102}, costs);
  const auto more = simulate_psa(mpi_model(), cluster,
                                 {256, 3341, 102}, costs);
  EXPECT_GT(large.makespan_s, 2.0 * small.makespan_s);  // 4x atoms
  EXPECT_GT(more.makespan_s, 2.0 * small.makespan_s);   // 4x pairs
}

TEST(PsaShapeTest, CometOutperformsWranglerAtEqualCores) {
  // Fig. 5: same core count, but Wrangler's hyper-threaded cores yield
  // smaller speedup.
  const PsaWorkload workload{128, 13364, 102};
  const auto costs = test_costs();
  // Paper labels: Comet 256/16 (16 cores/node), Wrangler 256/8.
  const auto on_comet = simulate_psa(
      mpi_model(), sim::ClusterSpec{sim::comet(), 16, 256}, workload, costs);
  const auto on_wrangler = simulate_psa(
      mpi_model(), sim::ClusterSpec{sim::wrangler(), 8, 256}, workload,
      costs);
  EXPECT_LT(on_comet.makespan_s, on_wrangler.makespan_s);
}

// ---- Fig. 6 ----

TEST(CpptrajShapeTest, OptimizedBuildBeatsReferenceBuild) {
  const auto costs = test_costs();
  const PsaWorkload workload{128, 3341, 102};
  const auto cluster = sim::cluster_for_cores(sim::comet(), 20);
  const auto gnu =
      simulate_cpptraj(cluster, workload, costs.rmsd2d_atom_naive);
  const auto intel =
      simulate_cpptraj(cluster, workload, costs.rmsd2d_atom_optimized);
  EXPECT_GT(gnu.makespan_s, 2.0 * intel.makespan_s);
}

TEST(CpptrajShapeTest, NearLinearSpeedupTo240Cores) {
  const auto costs = test_costs();
  const PsaWorkload workload{128, 3341, 102};
  const auto t1 = simulate_cpptraj(sim::cluster_for_cores(sim::comet(), 1),
                                   workload, costs.rmsd2d_atom_naive);
  const auto t240 = simulate_cpptraj(
      sim::cluster_for_cores(sim::comet(), 240), workload,
      costs.rmsd2d_atom_naive);
  const double speedup = t1.makespan_s / t240.makespan_s;
  EXPECT_GT(speedup, 50.0);   // paper reaches ~100x
  EXPECT_LT(speedup, 240.0);  // but sub-linear
}

// ---- Figs. 7-9 ----

TEST(LeafletShapeTest, Approach1IsWorst) {
  const auto costs = test_costs();
  const auto cluster = wrangler_cores(128);
  const LfWorkload w{262144, 1750000, 1024};
  for (const auto& model : {spark_model(), dask_model(), mpi_model()}) {
    const auto a1 = simulate_leaflet(model, cluster, 1, w, costs);
    const auto a3 = simulate_leaflet(model, cluster, 3, w, costs);
    ASSERT_TRUE(a1.feasible && a3.feasible) << model.name;
    EXPECT_GT(a1.makespan_s, a3.makespan_s) << model.name;
  }
}

TEST(LeafletShapeTest, Approach3ImprovesOnApproach2ForFrameworks) {
  // Sec. 4.3.3: ~20% runtime improvement for Spark and Dask, not MPI.
  const auto costs = test_costs();
  const auto cluster = wrangler_cores(256);
  const LfWorkload w{524288, 3520000, 1024};
  for (const auto& model : {spark_model(), dask_model()}) {
    const auto a2 = simulate_leaflet(model, cluster, 2, w, costs);
    const auto a3 = simulate_leaflet(model, cluster, 3, w, costs);
    ASSERT_TRUE(a2.feasible && a3.feasible);
    EXPECT_LT(a3.makespan_s, a2.makespan_s) << model.name;
  }
}

TEST(LeafletShapeTest, TreeWinsOnLargeLosesOnSmall) {
  // Sec. 4.3.4: approach 3 faster for 131k/262k, tree faster for large.
  const auto costs = test_costs();
  const auto cluster = wrangler_cores(256);
  const auto small3 = simulate_leaflet(spark_model(), cluster, 3,
                                       {131072, 896000, 1024}, costs);
  const auto small4 = simulate_leaflet(spark_model(), cluster, 4,
                                       {131072, 896000, 1024}, costs);
  EXPECT_LT(small3.makespan_s, small4.makespan_s);
  const auto big3 = simulate_leaflet(spark_model(), cluster, 3,
                                     {4194304, 44600000, 42435}, costs);
  const auto big4 = simulate_leaflet(spark_model(), cluster, 4,
                                     {4194304, 44600000, 1024}, costs);
  ASSERT_TRUE(big4.feasible);
  if (big3.feasible) {
    EXPECT_LT(big4.makespan_s, big3.makespan_s);
  }
}

TEST(LeafletShapeTest, MpiSpeedsUpNearlyLinearlyFrameworksCapNear5) {
  const auto costs = test_costs();
  const LfWorkload w{524288, 3520000, 1024};
  const auto speedup = [&](const FrameworkModel& model) {
    const auto t32 = simulate_leaflet(model, wrangler_cores(32), 3, w,
                                      costs);
    const auto t256 = simulate_leaflet(model, wrangler_cores(256), 3, w,
                                       costs);
    return t32.makespan_s / t256.makespan_s;
  };
  const double mpi = speedup(mpi_model());
  const double spark = speedup(spark_model());
  const double dask = speedup(dask_model());
  EXPECT_GT(mpi, 6.5);    // paper: ~8 (almost linear)
  EXPECT_LT(spark, 6.5);  // paper: <= ~5
  EXPECT_LT(dask, 6.5);
  EXPECT_GT(mpi, spark);
  EXPECT_GT(mpi, dask);
}

TEST(LeafletShapeTest, MemoryWalls) {
  const auto costs = test_costs();
  const auto cluster = wrangler_cores(256);
  // Approach 2 at 4M atoms with 1024 tasks: cdist OOM for every engine.
  for (const auto& model : {spark_model(), dask_model(), mpi_model()}) {
    const auto a2 = simulate_leaflet(model, cluster, 2,
                                     {4194304, 44600000, 1024}, costs);
    EXPECT_FALSE(a2.feasible) << model.name;
  }
  // Approach 3 at 4M with the paper's 42k repartition: Spark and MPI
  // work; Dask hits the worker memory watermark.
  const LfWorkload w4m{4194304, 44600000, 42435};
  EXPECT_TRUE(
      simulate_leaflet(spark_model(), cluster, 3, w4m, costs).feasible);
  EXPECT_TRUE(
      simulate_leaflet(mpi_model(), cluster, 3, w4m, costs).feasible);
  EXPECT_FALSE(
      simulate_leaflet(dask_model(), cluster, 3, w4m, costs).feasible);
  // Approach 1: Dask's broadcast dies at 524k; Spark/MPI survive 524k
  // but nobody survives 4M.
  const LfWorkload w524{524288, 3520000, 1024};
  EXPECT_FALSE(
      simulate_leaflet(dask_model(), cluster, 1, w524, costs).feasible);
  EXPECT_TRUE(
      simulate_leaflet(spark_model(), cluster, 1, w524, costs).feasible);
  EXPECT_TRUE(
      simulate_leaflet(mpi_model(), cluster, 1, w524, costs).feasible);
  EXPECT_FALSE(simulate_leaflet(spark_model(), cluster, 1,
                                {4194304, 44600000, 1024}, costs)
                   .feasible);
}

TEST(LeafletShapeTest, BroadcastShares) {
  // Fig. 8: broadcast is <1-10% of runtime for MPI, 3-15% for Spark,
  // 40-65% of the edge-discovery time for Dask.
  const auto costs = test_costs();
  const auto cluster = wrangler_cores(256);
  const LfWorkload w{262144, 1750000, 1024};
  const auto mpi = simulate_leaflet(mpi_model(), cluster, 1, w, costs);
  const auto spark = simulate_leaflet(spark_model(), cluster, 1, w, costs);
  const auto dask = simulate_leaflet(dask_model(), cluster, 1, w, costs);
  EXPECT_LT(mpi.bcast_s / mpi.makespan_s, 0.10);
  EXPECT_GT(dask.bcast_s, spark.bcast_s);
  EXPECT_GT(dask.bcast_s, 2.0 * mpi.bcast_s);
}

TEST(LeafletShapeTest, MpiBroadcastGrowsLinearlyWithNodes) {
  const auto costs = test_costs();
  const LfWorkload w{131072, 896000, 1024};
  const auto n1 = simulate_leaflet(
      mpi_model(), sim::ClusterSpec{sim::wrangler(), 1}, 1, w, costs);
  const auto n8 = simulate_leaflet(
      mpi_model(), sim::ClusterSpec{sim::wrangler(), 8}, 1, w, costs);
  EXPECT_NEAR(n8.bcast_s / std::max(1e-12, n1.bcast_s), 8.0, 0.5);
  // Spark's broadcast stays ~flat instead (compare 2 -> 8 nodes: a 4x
  // node increase must cost well under 2x).
  const auto s2 = simulate_leaflet(
      spark_model(), sim::ClusterSpec{sim::wrangler(), 2}, 1, w, costs);
  const auto s8 = simulate_leaflet(
      spark_model(), sim::ClusterSpec{sim::wrangler(), 8}, 1, w, costs);
  EXPECT_LT(s8.bcast_s, 2.0 * s2.bcast_s);
}

TEST(LeafletShapeTest, RpOverheadDominatedRegardlessOfSystemSize) {
  // Fig. 9: RP runtimes are similar despite 4x system-size differences.
  const auto costs = test_costs();
  const auto cluster = wrangler_cores(128);
  const auto small = simulate_leaflet(rp_model(), cluster, 2,
                                      {131072, 896000, 1024}, costs);
  const auto large = simulate_leaflet(rp_model(), cluster, 2,
                                      {524288, 3520000, 1024}, costs);
  ASSERT_TRUE(small.feasible && large.feasible);
  EXPECT_LT(large.makespan_s / small.makespan_s, 2.0);
  // And far above the frameworks at the same point.
  const auto spark = simulate_leaflet(spark_model(), cluster, 2,
                                      {131072, 896000, 1024}, costs);
  EXPECT_GT(small.makespan_s, spark.makespan_s);
}

TEST(LeafletShapeTest, Approach3ShufflesLessThanApproach2) {
  const auto costs = test_costs();
  const auto cluster = wrangler_cores(256);
  const LfWorkload w{524288, 3520000, 1024};
  const auto a2 = simulate_leaflet(spark_model(), cluster, 2, w, costs);
  const auto a3 = simulate_leaflet(spark_model(), cluster, 3, w, costs);
  EXPECT_LT(a3.shuffle_s, a2.shuffle_s);  // O(n) vs O(E) (Table 2)
}

// ---- Sec. 6 future-work simulators ----

TEST(SpeculationTest, MitigatesStragglersUnderHeavyTail) {
  const auto cluster = wrangler_cores(64);
  const double plain = simulate_straggler_makespan(
      cluster, 1024, 1.0, 0.05, 10.0, fault::SpeculationConfig{});
  const double mitigated = simulate_straggler_makespan(
      cluster, 1024, 1.0, 0.05, 10.0,
      fault::SpeculationConfig{.enabled = true, .threshold_factor = 1.5});
  EXPECT_LT(mitigated, plain);
  // With 5% of tasks 10x longer, speculation should reclaim most of the
  // straggler tail: the speculative copy finishes at 2.5x nominal.
  EXPECT_LT(mitigated, 0.6 * plain);
}

TEST(SpeculationTest, NoOpWithoutStragglers) {
  const auto cluster = wrangler_cores(32);
  const double plain = simulate_straggler_makespan(
      cluster, 256, 1.0, 0.0, 10.0, fault::SpeculationConfig{});
  const double speculated = simulate_straggler_makespan(
      cluster, 256, 1.0, 0.0, 10.0, fault::SpeculationConfig{.enabled = true});
  EXPECT_DOUBLE_EQ(plain, speculated);
}

TEST(SpeculationTest, EmptyWaveHasZeroMakespan) {
  const auto cluster = wrangler_cores(16);
  EXPECT_DOUBLE_EQ(simulate_straggler_makespan(cluster, 0, 1.0, 0.05, 10.0,
                                               fault::SpeculationConfig{}),
                   0.0);
  EXPECT_DOUBLE_EQ(
      simulate_straggler_makespan(cluster, 0, 1.0, 0.05, 10.0,
                                  fault::SpeculationConfig{.enabled = true}),
      0.0);
}

TEST(SpeculationTest, EveryTaskAStragglerStillGainsNothingOrHelps) {
  // With fraction 1.0 there is no fast cohort to compare against: a
  // backup copy launched at threshold x nominal still beats riding out
  // the full 10x tail, so speculation may help but must never hurt.
  const auto cluster = wrangler_cores(64);
  const double plain = simulate_straggler_makespan(
      cluster, 256, 1.0, 1.0, 10.0, fault::SpeculationConfig{});
  const double speculative = simulate_straggler_makespan(
      cluster, 256, 1.0, 1.0, 10.0,
      fault::SpeculationConfig{.enabled = true, .threshold_factor = 1.5});
  EXPECT_GT(plain, 0.0);
  EXPECT_GT(speculative, 0.0);
  EXPECT_LE(speculative, plain);
}

TEST(SpeculationTest, DisabledPolicyMatchesTheDefault) {
  const auto cluster = wrangler_cores(64);
  const double implicit = simulate_straggler_makespan(
      cluster, 512, 1.0, 0.05, 10.0, fault::SpeculationConfig{});
  const double expl = simulate_straggler_makespan(
      cluster, 512, 1.0, 0.05, 10.0,
      fault::SpeculationConfig{.enabled = false, .threshold_factor = 99.0});
  EXPECT_DOUBLE_EQ(implicit, expl);
}

TEST(SpeculationTest, UnreachableThresholdDegeneratesToPlain) {
  // A backup that would launch after the straggler already finished is
  // never worth submitting: the simulator must fall back to the plain
  // makespan rather than paying for useless copies.
  const auto cluster = wrangler_cores(64);
  const double plain = simulate_straggler_makespan(
      cluster, 512, 1.0, 0.05, 10.0, fault::SpeculationConfig{});
  const double lofty = simulate_straggler_makespan(
      cluster, 512, 1.0, 0.05, 10.0,
      fault::SpeculationConfig{.enabled = true, .threshold_factor = 1000.0});
  EXPECT_DOUBLE_EQ(lofty, plain);
}

TEST(ElasticTest, GrowingThePoolShortensTheTail) {
  // 256 x 1 s tasks on 16 cores = 16 s flat; doubling the pool at t=4
  // finishes the remaining 192 tasks on 32 cores: 4 + 6 = 10 s.
  const double fixed = simulate_elastic_makespan(256, 1.0, 16, 0, 0.0);
  const double grown = simulate_elastic_makespan(256, 1.0, 16, 16, 4.0);
  EXPECT_DOUBLE_EQ(fixed, 16.0);
  EXPECT_DOUBLE_EQ(grown, 10.0);
}

TEST(ElasticTest, LateGrowthHelpsLess) {
  const double early = simulate_elastic_makespan(256, 1.0, 16, 16, 2.0);
  const double late = simulate_elastic_makespan(256, 1.0, 16, 16, 12.0);
  EXPECT_LT(early, late);
  EXPECT_LE(late, 16.0);
}

// ---- grid sanity: every simulated cell is finite, positive and
// monotone in resources ----

class GridSanityTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(GridSanityTest, LeafletCellsAreFiniteAndMonotoneInCores) {
  const auto [approach, atoms] = GetParam();
  const auto costs = test_costs();
  const LfWorkload w{atoms, atoms * 7, 1024};
  double previous = std::numeric_limits<double>::infinity();
  for (const auto& model : {mpi_model(), spark_model(), dask_model(),
                            rp_model()}) {
    previous = std::numeric_limits<double>::infinity();
    for (std::size_t cores : {32u, 64u, 128u, 256u}) {
      const auto outcome = simulate_leaflet(model, wrangler_cores(cores),
                                            approach, w, costs);
      if (!outcome.feasible) continue;
      EXPECT_TRUE(std::isfinite(outcome.makespan_s)) << model.name;
      EXPECT_GT(outcome.makespan_s, 0.0) << model.name;
      EXPECT_GE(outcome.compute_s, 0.0);
      EXPECT_GE(outcome.shuffle_s, 0.0);
      EXPECT_GE(outcome.bcast_s, 0.0);
      // More cores never make the virtual makespan worse (same nodes
      // layout family, fixed overheads are core-independent).
      EXPECT_LE(outcome.makespan_s, previous * 1.001)
          << model.name << " at " << cores << " cores";
      previous = outcome.makespan_s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, GridSanityTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(131072u, 262144u)),
    [](const auto& param_info) {
      std::string name = "A";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_atoms";
      name += std::to_string(std::get<1>(param_info.param));
      return name;
    });

TEST(GridSanityTest, ThroughputMonotoneInTaskCount) {
  const auto cluster = wrangler_cores(32);
  for (const auto& model : {spark_model(), dask_model()}) {
    double previous = 0.0;
    for (std::size_t tasks = 16; tasks <= 65536; tasks *= 4) {
      const auto outcome = simulate_throughput(model, cluster, tasks);
      EXPECT_GE(outcome.makespan_s, previous) << model.name;
      previous = outcome.makespan_s;
    }
  }
}

TEST(GridSanityTest, PsaMonotoneInWorkload) {
  const auto costs = test_costs();
  const auto cluster = wrangler_cores(64);
  double previous = 0.0;
  for (std::size_t trajectories : {32u, 64u, 128u, 256u}) {
    const auto outcome = simulate_psa(
        mpi_model(), cluster, {trajectories, 3341, 102}, costs);
    EXPECT_GT(outcome.makespan_s, previous);
    previous = outcome.makespan_s;
  }
}

TEST(CalibrationTest, HostCostsArePositiveAndOrdered) {
  const auto& costs = host_kernel_costs();
  EXPECT_GT(costs.hausdorff_unit, 0.0);
  EXPECT_GT(costs.cdist_element, 0.0);
  EXPECT_GT(costs.tree_build_point, 0.0);
  EXPECT_GT(costs.tree_query_point_log, 0.0);
  EXPECT_GT(costs.cc_edge, 0.0);
  EXPECT_GT(costs.merge_vertex, 0.0);
  // The -O0 kernel must really be slower than the -O3 kernel (Fig. 6).
  EXPECT_GT(costs.rmsd2d_atom_naive, costs.rmsd2d_atom_optimized);
}

}  // namespace
}  // namespace mdtask::perf
