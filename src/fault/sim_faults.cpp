#include "mdtask/fault/sim_faults.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mdtask/common/rng.h"

namespace mdtask::fault {

PlanResolution resolve_plan(const FaultPlan& plan, EngineId engine,
                            RecoveryLog* log) {
  PlanResolution resolution;
  if (plan.schedule.empty()) return resolution;

  // Representative task ids: every explicitly named task, plus one
  // stand-in for wildcard entries (wildcards hit all tasks identically,
  // so one representative resolves the verdict for the whole class).
  std::vector<std::uint64_t> tasks;
  bool wildcard = false;
  for (const FaultSpec& spec : plan.schedule) {
    if (spec.task_id == FaultSpec::kEveryTask) {
      wildcard = true;
    } else {
      tasks.push_back(spec.task_id);
    }
  }
  std::sort(tasks.begin(), tasks.end());
  tasks.erase(std::unique(tasks.begin(), tasks.end()), tasks.end());
  if (wildcard && tasks.empty()) tasks.push_back(0);

  const int budget = std::max(1, plan.retry.max_attempts);
  for (const std::uint64_t task : tasks) {
    for (int attempt = 0; attempt < budget; ++attempt) {
      const auto it = std::find_if(
          plan.schedule.begin(), plan.schedule.end(),
          [&](const FaultSpec& s) { return s.fires_for(task, attempt); });
      if (it == plan.schedule.end()) break;  // attempt runs clean
      ++resolution.faults_injected;
      const RecoveryAction action =
          recovery_action(engine, it->kind, attempt, plan.retry);
      if (log != nullptr) {
        log->record({engine, task, attempt, it->kind, action,
                     backoff_for_attempt(plan.retry, attempt + 1), 0.0});
      }
      if (action == RecoveryAction::kGiveUp) {
        resolution.survives = false;
        if (resolution.fatal_fault == FaultKind::kNone) {
          resolution.fatal_fault = it->kind;
        }
        break;
      }
      ++resolution.retries;
    }
  }
  return resolution;
}

CheckpointSweepPoint simulate_checkpointed_job(double work_s,
                                               double interval_s,
                                               double checkpoint_s,
                                               double restart_s,
                                               double mtbf_s,
                                               std::uint64_t seed) {
  CheckpointSweepPoint point;
  point.interval_s = interval_s;
  if (work_s <= 0.0) return point;
  interval_s = std::max(interval_s, 1e-9);

  // Failure arrivals: a renewal process with exponential inter-arrival
  // times drawn by the injector's pure hash over (seed, failure index)
  // — deterministic per seed. Checkpoint writes and restarts are
  // modelled failure-immune: a failure that would land inside one fires
  // right after it (losing no work, still paying the restart).
  std::uint64_t draws = 0;
  const auto next_gap = [&]() -> double {
    if (mtbf_s <= 0.0) return std::numeric_limits<double>::infinity();
    std::uint64_t state = seed;
    splitmix64(state);
    state ^= draws + 0x9e3779b97f4a7c15ULL;
    ++draws;
    const std::uint64_t bits = splitmix64(state);
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
    return -mtbf_s * std::log1p(-u);
  };

  double t = 0.0;     // wall clock
  double done = 0.0;  // checkpointed progress
  double next_fail = next_gap();
  while (done < work_s) {
    // Work until the next checkpoint boundary or job completion.
    const double segment = std::min(interval_s, work_s - done);
    const double boundary = t + segment;
    if (next_fail < boundary) {
      // The uncheckpointed part of this segment is lost.
      ++point.failures;
      t = std::max(t, next_fail) + restart_s;
      next_fail += next_gap();
      continue;
    }
    t = boundary;
    done += segment;
    if (done < work_s) {
      t += checkpoint_s;
      ++point.checkpoints;
    }
  }
  point.total_s = t;
  return point;
}

double daly_optimum_interval(double checkpoint_s, double mtbf_s) noexcept {
  if (checkpoint_s <= 0.0 || mtbf_s <= 0.0) return 0.0;
  return std::max(0.0,
                  std::sqrt(2.0 * checkpoint_s * mtbf_s) - checkpoint_s);
}

CheckpointCostModel checkpoint_model_for(
    const sim::MachineProfile& machine) noexcept {
  // ~1 ms metadata/open latency per direction plus the payload over the
  // shared filesystem's aggregate bandwidth (Lustre on Comet, flash on
  // Wrangler).
  CheckpointCostModel model;
  model.write_latency_s = 1e-3;
  model.write_Bps = machine.filesystem_Bps;
  model.restore_latency_s = 1e-3;
  model.restore_Bps = machine.filesystem_Bps;
  return model;
}

}  // namespace mdtask::fault
