#include "mdtask/service/reliability.h"

#include <algorithm>
#include <vector>

#include "mdtask/common/hash.h"

namespace mdtask::service {

double deadline_budget_s(const DeadlineConfig& config,
                         const AnalysisRequest& request) noexcept {
  if (!config.enabled) return 0.0;
  if (request.deadline_s > 0.0) return request.deadline_s;
  return config.for_class(request.tenant_class);
}

std::size_t DegradationController::enter_depth(
    BrownoutLevel level) const noexcept {
  switch (level) {
    case BrownoutLevel::kNormal: return 0;
    case BrownoutLevel::kShedBestEffort: return config_.shed_depth;
    case BrownoutLevel::kShrinkBatch: return config_.shrink_depth;
    case BrownoutLevel::kServeStale: return config_.stale_depth;
  }
  return 0;
}

BrownoutLevel DegradationController::update(std::size_t queue_depth) {
  if (!config_.enabled) return BrownoutLevel::kNormal;
  BrownoutLevel target = BrownoutLevel::kNormal;
  if (queue_depth >= config_.stale_depth) {
    target = BrownoutLevel::kServeStale;
  } else if (queue_depth >= config_.shrink_depth) {
    target = BrownoutLevel::kShrinkBatch;
  } else if (queue_depth >= config_.shed_depth) {
    target = BrownoutLevel::kShedBestEffort;
  }
  if (target > level_) {
    level_ = target;
    ++stats_.escalations;
  } else if (target < level_) {
    // Step down one level at a time, and only once depth has fallen to
    // the hysteresis fraction of the current level's entry threshold.
    const double exit_at = config_.exit_fraction *
                           static_cast<double>(enter_depth(level_));
    if (static_cast<double>(queue_depth) <= exit_at) {
      level_ = static_cast<BrownoutLevel>(
          static_cast<std::uint8_t>(level_) - 1);
      ++stats_.recoveries;
    }
  }
  return level_;
}

BrownoutLevel DegradationController::level() const {
  return level_;
}

DegradationController::Stats DegradationController::stats() const {
  return stats_;
}

std::uint64_t chaos_job_id(const EngineJob& job) noexcept {
  std::vector<std::uint64_t> keys;
  keys.reserve(job.requests.size());
  for (const AnalysisRequest& request : job.requests) {
    keys.push_back(RequestKeyHash{}(request_key(request)));
  }
  // Sorted, equal keys are adjacent: the k-th repeat of a key (k > 0)
  // folds k into its term, so duplicate keys never cancel in the XOR.
  std::sort(keys.begin(), keys.end());
  std::uint64_t acc = 0;
  std::uint64_t repeat = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    repeat = (i > 0 && keys[i] == keys[i - 1]) ? repeat + 1 : 0;
    acc ^= hash_mix(repeat == 0 ? keys[i] : hash_combine(keys[i], repeat));
  }
  return hash_combine(acc, job.requests.size());
}

namespace {

fault::FaultPlan chaos_plan(const ChaosConfig& config) {
  fault::FaultPlan plan;
  plan.seed = config.seed;
  if (config.enabled) {
    plan.rates.worker_oom = config.fail_rate;
    plan.rates.straggler = config.slow_rate;
    plan.rates.fs_stall = config.hang_rate;
    plan.rates.fs_stall_s = config.hang_s;
  }
  return plan;
}

}  // namespace

ChaosInjector::ChaosInjector(const ChaosConfig& config)
    : config_(config),
      plan_(chaos_plan(config)),
      injector_(plan_, fault::EngineId::kService) {}

ChaosOutcome ChaosInjector::decide(std::uint64_t chaos_id,
                                   int attempt) const noexcept {
  ChaosOutcome out;
  if (!config_.enabled) return out;
  const fault::FaultSpec spec = injector_.decide(chaos_id, attempt);
  switch (spec.kind) {
    case fault::FaultKind::kWorkerOomKill:
      out.kind = spec.kind;
      break;
    case fault::FaultKind::kFilesystemStall:
      out.kind = spec.kind;
      out.delay_s = spec.delay_s;  // hang_s via the plan's fs_stall_s
      break;
    case fault::FaultKind::kStraggler:
      out.kind = spec.kind;
      out.delay_s = config_.slow_s;
      break;
    case fault::FaultKind::kNone:
    case fault::FaultKind::kNodeCrash:
    case fault::FaultKind::kNetworkPartition:
    case fault::FaultKind::kTransientReadError:
      break;  // not part of the serving chaos vocabulary
  }
  return out;
}

}  // namespace mdtask::service
