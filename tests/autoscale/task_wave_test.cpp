// The task-wave replay with the controller in the loop: determinism
// (same seed => byte-identical canonical RecoveryLog and traces on all
// four engines), the adaptive-beats-static acceptance claim, MPI rigid
// vetoes, the speculation win on straggler-heavy waves, and the parity
// of a controller with every policy gated off against no controller at
// all.
#include "mdtask/autoscale/task_wave.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "mdtask/trace/tracer.h"

namespace mdtask::autoscale {
namespace {

using fault::EngineId;

const EngineId kAllEngines[] = {EngineId::kSpark, EngineId::kDask,
                                EngineId::kRp, EngineId::kMpi};

/// Straggler-heavy wave: 5% of tasks stretch 8x.
fault::FaultPlan straggler_plan(std::uint64_t seed = 42) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.rates.straggler = 0.05;
  plan.rates.straggler_factor = 8.0;
  return plan;
}

/// A live controller ticking every 0.5 virtual seconds, the cadence of
/// the published closed-loop tables.
AdaptiveConfig controller_config() {
  AdaptiveConfig config;
  config.enabled = true;
  config.tick_interval_s = 0.5;
  return config;
}

AdaptiveConfig elastic_config() {
  AdaptiveConfig config = controller_config();
  config.utilization.low_watermark = 0.20;
  config.utilization.cooldown_s = 1.0;
  config.utilization.max_pool = 64;
  config.utilization.max_step = 32;
  config.speculation.min_completed = 16;
  return config;
}

/// Stable rendering of a tracer's events for byte-identity comparison.
std::string render_trace(const trace::Tracer& tracer) {
  std::ostringstream out;
  for (const auto& event : tracer.events()) {
    out << event.category << '|' << event.name << '|' << event.start_us
        << '|' << event.dur_us << '\n';
  }
  return out.str();
}

TEST(SimAdaptiveTest, SameSeedIsByteIdenticalOnEveryEngine) {
  const std::vector<double> durations(256, 1.0);
  for (const EngineId engine : kAllEngines) {
    fault::RecoveryLog log_a, log_b;
    trace::Tracer tracer_a, tracer_b;
    tracer_a.set_enabled(true);
    tracer_b.set_enabled(true);
    log_a.attach_tracer(&tracer_a, tracer_a.thread(tracer_a.process("a"),
                                                   "autoscale"));
    log_b.attach_tracer(&tracer_b, tracer_b.thread(tracer_b.process("b"),
                                                   "autoscale"));
    const TaskWaveOutcome a =
        simulate_task_wave(32, durations, straggler_plan(), engine, &log_a,
                           nullptr, nullptr, elastic_config());
    const TaskWaveOutcome b =
        simulate_task_wave(32, durations, straggler_plan(), engine, &log_b,
                           nullptr, nullptr, elastic_config());

    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.scale_ups, b.scale_ups);
    EXPECT_EQ(a.speculative_copies, b.speculative_copies);
    EXPECT_EQ(log_a.canonical(), log_b.canonical());
    EXPECT_EQ(render_trace(tracer_a), render_trace(tracer_b));
  }
}

TEST(SimAdaptiveTest, DifferentSeedsDiverge) {
  const std::vector<double> durations(256, 1.0);
  fault::RecoveryLog log_a, log_b;
  simulate_task_wave(32, durations, straggler_plan(42), EngineId::kDask,
                     &log_a, nullptr, nullptr, elastic_config());
  simulate_task_wave(32, durations, straggler_plan(43), EngineId::kDask,
                     &log_b, nullptr, nullptr, elastic_config());
  EXPECT_NE(log_a.canonical(), log_b.canonical());
}

TEST(SimAdaptiveTest, AdaptivePolicyMatchesOrBeatsBestStaticPlan) {
  // The acceptance claim: on the straggler-heavy wave the
  // closed loop must match/beat the best hand-picked fixed schedule.
  const std::vector<double> durations(512, 1.0);
  const fault::FaultPlan plan = straggler_plan();

  double best_static =
      simulate_task_wave(32, durations, plan, EngineId::kDask).makespan_s;
  for (double at : {2.0, 4.0, 8.0}) {
    fault::MembershipPlan membership{.seed = 42};
    membership.schedule.push_back({fault::MembershipKind::kNodeJoin, at, 32});
    best_static = std::min(
        best_static, simulate_task_wave(32, durations, plan, EngineId::kDask,
                                        nullptr, &membership)
                         .makespan_s);
  }

  const TaskWaveOutcome adaptive =
      simulate_task_wave(32, durations, plan, EngineId::kDask, nullptr,
                         nullptr, nullptr, elastic_config());
  EXPECT_LE(adaptive.makespan_s, best_static);
  EXPECT_GT(adaptive.scale_ups, 0u);
  EXPECT_EQ(adaptive.peak_pool, 64u);
}

TEST(SimAdaptiveTest, SpeculationShortensTheStragglerTail) {
  const std::vector<double> durations(512, 1.0);
  AdaptiveConfig scaling_only = elastic_config();
  scaling_only.speculation_enabled = false;
  const TaskWaveOutcome without =
      simulate_task_wave(32, durations, straggler_plan(), EngineId::kDask,
                         nullptr, nullptr, nullptr, scaling_only);
  const TaskWaveOutcome with =
      simulate_task_wave(32, durations, straggler_plan(), EngineId::kDask,
                         nullptr, nullptr, nullptr, elastic_config());
  EXPECT_EQ(without.speculative_copies, 0u);
  EXPECT_GT(with.speculative_copies, 0u);
  EXPECT_LT(with.makespan_s, without.makespan_s);
}

TEST(SimAdaptiveTest, MpiIsRigidAndOnlyRecordsVetoes) {
  const std::vector<double> durations(256, 1.0);
  fault::RecoveryLog log;
  const TaskWaveOutcome outcome =
      simulate_task_wave(32, durations, straggler_plan(), EngineId::kMpi,
                         &log, nullptr, nullptr, elastic_config());
  EXPECT_EQ(outcome.scale_ups, 0u);
  EXPECT_EQ(outcome.scale_downs, 0u);
  EXPECT_EQ(outcome.peak_pool, 32u);
  EXPECT_EQ(outcome.final_pool, 32u);
  EXPECT_GT(outcome.rigid_vetoes, 0u);
  const auto records = log.autoscale_events();
  ASSERT_FALSE(records.empty());
  for (const auto& record : records) {
    if (record.action == fault::AutoscaleAction::kSpeculate) continue;
    EXPECT_EQ(record.action, fault::AutoscaleAction::kRigidVeto);
  }
  bool vetoed = false;
  for (const auto& line : log.canonical()) {
    vetoed = vetoed || line.find("rigid-veto") != std::string::npos;
  }
  EXPECT_TRUE(vetoed);
}

TEST(SimAdaptiveTest, FaultFreeBalancedWaveHoldsThroughout) {
  // Demand matches the pool at target utilization: nothing to decide,
  // so the log stays empty however often the controller ticks.
  const std::vector<double> durations(32, 1.0);
  AdaptiveConfig config = elastic_config();
  config.utilization.min_pool = 32;
  config.tick_interval_s = 0.1;
  fault::RecoveryLog log;
  const TaskWaveOutcome outcome =
      simulate_task_wave(32, durations, fault::FaultPlan{}, EngineId::kDask,
                         &log, nullptr, nullptr, config);
  EXPECT_DOUBLE_EQ(outcome.makespan_s, 1.0);
  EXPECT_EQ(outcome.scale_ups, 0u);
  EXPECT_EQ(outcome.speculative_copies, 0u);
  EXPECT_EQ(log.autoscale_size(), 0u);
  EXPECT_EQ(outcome.final_pool, 32u);
}

TEST(SimAdaptiveTest, PoolTimelineTracksEveryResize) {
  const std::vector<double> durations(512, 1.0);
  std::vector<PoolSample> timeline;
  const TaskWaveOutcome outcome =
      simulate_task_wave(32, durations, straggler_plan(), EngineId::kDask,
                         nullptr, nullptr, &timeline, elastic_config());
  ASSERT_GE(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline.front().at_s, 0.0);
  EXPECT_EQ(timeline.front().servers, 32u);
  std::size_t peak = 0;
  for (const auto& sample : timeline) peak = std::max(peak, sample.servers);
  EXPECT_EQ(peak, outcome.peak_pool);
}

TEST(SimAdaptiveTest, EmptyWaveCompletesImmediately) {
  const TaskWaveOutcome outcome =
      simulate_task_wave(8, {}, straggler_plan(), EngineId::kDask, nullptr,
                         nullptr, nullptr, elastic_config());
  EXPECT_DOUBLE_EQ(outcome.makespan_s, 0.0);
  EXPECT_EQ(outcome.speculative_copies, 0u);
}

TEST(TaskWaveParityTest, ControllerWithPoliciesOffIsTheFaultReplay) {
  // Every fault kind the replay recovers from, the plan's fixed-threshold
  // speculation, and seeded churn: a controller that ticks with both
  // policies gated off must leave every counter, the canonical log and
  // the pool timeline exactly as no controller does.
  const std::vector<double> durations(256, 1.0);
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.rates.straggler = 0.05;
  plan.rates.straggler_factor = 6.0;
  plan.rates.worker_oom = 0.03;
  plan.rates.node_crash = 0.01;
  plan.rates.fs_stall = 0.03;
  plan.speculation.enabled = true;
  AdaptiveConfig idle = elastic_config();
  idle.scaling_enabled = false;
  idle.speculation_enabled = false;
  for (const EngineId engine : kAllEngines) {
    const fault::MembershipPlan membership =
        fault::churn_plan(7, engine, 3, 3, 8.0, 2);
    fault::RecoveryLog log_off, log_idle;
    std::vector<PoolSample> timeline_off, timeline_idle;
    const TaskWaveOutcome off =
        simulate_task_wave(16, durations, plan, engine, &log_off,
                           &membership, &timeline_off);
    const TaskWaveOutcome on =
        simulate_task_wave(16, durations, plan, engine, &log_idle,
                           &membership, &timeline_idle, idle);
    const char* name = fault::to_string(engine);
    // The scenario exercises what it claims to.
    EXPECT_GT(on.ticks, 0u) << name;
    EXPECT_EQ(off.ticks, 0u) << name;
    EXPECT_GT(off.stragglers, 0u) << name;
    EXPECT_GT(off.retries, 0u) << name;
    EXPECT_GT(off.speculative_copies, 0u) << name;
    EXPECT_GT(off.faults_injected, off.stragglers) << name;
    EXPECT_EQ(off.joins + off.leaves, membership.schedule.size()) << name;

    EXPECT_EQ(off.completed, on.completed) << name;
    EXPECT_EQ(off.failure, on.failure) << name;
    EXPECT_EQ(off.makespan_s, on.makespan_s) << name;
    EXPECT_EQ(off.faults_injected, on.faults_injected) << name;
    EXPECT_EQ(off.stragglers, on.stragglers) << name;
    EXPECT_EQ(off.retries, on.retries) << name;
    EXPECT_EQ(off.speculative_copies, on.speculative_copies) << name;
    EXPECT_EQ(off.joins, on.joins) << name;
    EXPECT_EQ(off.leaves, on.leaves) << name;
    EXPECT_EQ(off.preempted, on.preempted) << name;
    EXPECT_EQ(on.scale_ups + on.scale_downs + on.rigid_vetoes, 0u) << name;
    EXPECT_EQ(off.peak_pool, on.peak_pool) << name;
    EXPECT_EQ(off.final_pool, on.final_pool) << name;
    EXPECT_EQ(off.p50_task_s, on.p50_task_s) << name;
    EXPECT_EQ(off.p95_task_s, on.p95_task_s) << name;
    EXPECT_EQ(off.p99_task_s, on.p99_task_s) << name;
    EXPECT_EQ(log_idle.autoscale_size(), 0u) << name;
    EXPECT_EQ(log_off.canonical(), log_idle.canonical()) << name;
    ASSERT_EQ(timeline_off.size(), timeline_idle.size()) << name;
    for (std::size_t i = 0; i < timeline_off.size(); ++i) {
      EXPECT_EQ(timeline_off[i].at_s, timeline_idle[i].at_s) << name;
      EXPECT_EQ(timeline_off[i].servers, timeline_idle[i].servers) << name;
    }
  }
}

}  // namespace
}  // namespace mdtask::autoscale
