// Decision side of the mdtask::autoscale control loop.
//
// A Policy turns one MetricsSnapshot into at most one resize Decision
// per tick, plus an optional straggler-speculation threshold. Policies
// are pure functions of the snapshot and their own configuration (no
// wall clock, no randomness): the only state a policy keeps is the
// timestamp of its last action, and that timestamp comes from the
// snapshot's clock (virtual seconds in the DES). Same observations in,
// same decisions out.
//
//  * TargetUtilizationPolicy — Dask-adaptive-style resizing: size the
//    pool for the observed demand (busy + queued) at a target
//    utilization, with high/low watermark hysteresis, a per-action
//    cooldown, and a bounded step per tick.
//  * StragglerSpeculationPolicy — Spark-speculation-style backup
//    submission: any in-flight task older than k x p95 of the completed
//    window earns a backup copy (first completion wins in the
//    replay). Holds until enough completions exist for p95 to mean
//    anything.
#pragma once

#include <cstddef>
#include <string>

#include "mdtask/autoscale/metrics.h"

namespace mdtask::autoscale {

/// One resize decision for a control tick. kHold carries no count.
struct Decision {
  enum class Kind { kHold, kScaleUp, kScaleDown };
  Kind kind = Kind::kHold;
  std::size_t count = 0;  ///< servers to add/remove
  /// Human-readable rationale ("util 0.97 >= 0.90, demand 41 -> +8"),
  /// surfaced in bench tables and traces; not part of canonical logs.
  std::string reason;
};

/// Interface of one pluggable control policy. decide() may mutate
/// internal bookkeeping (cooldown clocks) and is called by exactly one
/// controller; the const queries must stay pure.
class Policy {
 public:
  virtual ~Policy() = default;
  virtual const char* name() const noexcept = 0;

  /// Resize verdict for this tick. Default: always hold.
  virtual Decision decide(const MetricsSnapshot&) { return {}; }

  /// Straggler threshold in seconds: an in-flight task older than this
  /// should get a backup copy. <= 0 disables speculation this tick.
  virtual double speculation_threshold_s(const MetricsSnapshot&) const {
    return 0.0;
  }

  /// Forgets learned state (cooldown clocks) so the policy can drive a
  /// fresh run.
  virtual void reset() {}
};

/// Feedback-driven pool sizing at a target utilization.
class TargetUtilizationPolicy : public Policy {
 public:
  struct Config {
    /// Size the pool so demand / pool ~= target when acting.
    double target = 0.80;
    /// Act only outside the [low, high] utilization band (hysteresis).
    double high_watermark = 0.90;
    double low_watermark = 0.50;
    /// Minimum control-time seconds between two actions.
    double cooldown_s = 2.0;
    std::size_t min_pool = 1;
    std::size_t max_pool = 4096;
    /// Largest resize in one decision.
    std::size_t max_step = 16;
  };

  TargetUtilizationPolicy() = default;
  explicit TargetUtilizationPolicy(Config config) : config_(config) {}

  const char* name() const noexcept override { return "target-utilization"; }
  Decision decide(const MetricsSnapshot& m) override;
  void reset() override { last_action_s_ = kNever; }

  const Config& config() const noexcept { return config_; }

 private:
  static constexpr double kNever = -1e300;
  Config config_;
  double last_action_s_ = kNever;
};

/// Backup-submit stragglers once the completed-task window is
/// trustworthy: threshold = threshold_factor x windowed p95.
class StragglerSpeculationPolicy : public Policy {
 public:
  struct Config {
    /// k in the k x p95 straggler test.
    double threshold_factor = 2.0;
    /// Completions required before p95 is considered meaningful.
    std::uint64_t min_completed = 8;
    /// Floor on the threshold, guarding against degenerate tiny p95.
    double min_threshold_s = 0.0;
  };

  StragglerSpeculationPolicy() = default;
  explicit StragglerSpeculationPolicy(Config config) : config_(config) {}

  const char* name() const noexcept override { return "straggler-speculation"; }
  double speculation_threshold_s(const MetricsSnapshot& m) const override;

  const Config& config() const noexcept { return config_; }

 private:
  Config config_;
};

}  // namespace mdtask::autoscale
