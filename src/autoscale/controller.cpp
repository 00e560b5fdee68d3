#include "mdtask/autoscale/controller.h"

namespace mdtask::autoscale {

AutoscaleController::AutoscaleController(const AdaptiveConfig& config,
                                         EngineActions actions,
                                         MetricsWindow* window,
                                         fault::RecoveryLog* log)
    : actions_(std::move(actions)),
      window_(window),
      log_(log),
      utilization_(config.utilization),
      speculation_(config.speculation) {
  if (config.scaling_enabled) policies_.push_back(&utilization_);
  if (config.speculation_enabled) policies_.push_back(&speculation_);
}

void AutoscaleController::record(fault::AutoscaleAction action,
                                 std::size_t count, std::size_t pool,
                                 std::size_t queue_depth, double now_s) {
  const std::size_t seq = seq_++;
  if (log_ == nullptr) return;
  fault::AutoscaleRecord rec;
  rec.engine = actions_.engine;
  rec.action = action;
  rec.seq = seq;
  rec.count = count;
  rec.pool_size = pool;
  rec.queue_depth = queue_depth;
  rec.ts_us = now_s * 1e6;
  log_->record_autoscale(rec);
}

TickResult AutoscaleController::tick(double now_s) {
  TickResult result;
  if (window_ == nullptr) return result;
  const MetricsSnapshot m = window_->snapshot(now_s);
  result.snapshot = m;

  for (Policy* policy : policies_) {
    Decision d = policy->decide(m);
    if (d.kind == Decision::Kind::kHold) continue;
    result.decision = std::move(d);
    const auto& verdict = result.decision;
    if (actions_.rigid) {
      result.vetoed = true;
      record(fault::AutoscaleAction::kRigidVeto, verdict.count, m.pool_size,
             m.queue_depth, now_s);
    } else if (verdict.kind == Decision::Kind::kScaleUp &&
               actions_.grow != nullptr) {
      result.applied = actions_.grow(verdict.count);
      if (result.applied > 0) {
        const std::size_t pool = actions_.pool_size != nullptr
                                     ? actions_.pool_size()
                                     : m.pool_size + result.applied;
        record(fault::AutoscaleAction::kScaleUp, result.applied, pool,
               m.queue_depth, now_s);
      }
    } else if (verdict.kind == Decision::Kind::kScaleDown &&
               actions_.shrink != nullptr) {
      result.applied = actions_.shrink(verdict.count);
      if (result.applied > 0) {
        const std::size_t pool =
            actions_.pool_size != nullptr
                ? actions_.pool_size()
                : m.pool_size - std::min(m.pool_size, result.applied);
        record(fault::AutoscaleAction::kScaleDown, result.applied, pool,
               m.queue_depth, now_s);
      }
    }
    break;  // first non-hold verdict owns the tick
  }

  double threshold_s = 0.0;
  for (const Policy* policy : policies_) {
    threshold_s = policy->speculation_threshold_s(m);
    if (threshold_s > 0.0) break;
  }
  if (threshold_s > 0.0 && !actions_.rigid && actions_.speculate != nullptr) {
    result.speculated = actions_.speculate(threshold_s);
    if (result.speculated > 0) {
      const std::size_t pool = actions_.pool_size != nullptr
                                   ? actions_.pool_size()
                                   : m.pool_size;
      record(fault::AutoscaleAction::kSpeculate, result.speculated, pool,
             m.queue_depth, now_s);
    }
  }
  return result;
}

void AutoscaleController::reset() {
  for (Policy* policy : policies_) policy->reset();
  seq_ = 0;
}

}  // namespace mdtask::autoscale
