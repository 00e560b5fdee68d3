// Request reliability layer of the serving front end (docs/SERVICE.md).
//
// The serving path composes three independent mechanisms, each behind a
// disabled-by-default config so the baseline pipeline is byte-identical
// with everything off:
//
//  * Deadlines   — a request carries a completion budget; the service
//                  fails it fast with kDeadlineExceeded the moment the
//                  budget cannot be met, instead of letting it queue.
//  * Retry       — executor invocations are wrapped in the shared
//                  fault::RetryPolicy (bounded attempts, exponential
//                  backoff), scoped as fault::EngineId::kService.
//  * Brownout    — a DegradationController watches the admitted backlog
//                  and degrades in steps: shed best-effort first, then
//                  shrink batch delay windows, then serve stale cache
//                  entries flagged stale=true.
//
// Chaos testing drives all of the above: a ChaosInjector composes the
// deterministic fault::FaultInjector into the executor boundary —
// fail / slow / hang by pure hash of (seed, job identity, attempt) —
// and the one decision core (pipeline.h) both the live service and the
// simulate_service DES twin run calls it, so live and virtual chaos
// verdicts agree byte for byte.
//
// Time is always the caller's clock (wall seconds live, virtual seconds
// in the DES); nothing here reads a clock or mutates an RNG stream.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "mdtask/fault/fault.h"
#include "mdtask/fault/injector.h"
#include "mdtask/service/batcher.h"
#include "mdtask/service/request.h"

namespace mdtask::service {

// ---------------------------------------------------------------------------
// Deadlines

/// Per-request completion budgets. A request may carry its own
/// deadline_s; otherwise the tenant-class default applies. Budgets are
/// RELATIVE seconds at submission; admission rewrites them to absolute
/// service-clock deadlines.
struct DeadlineConfig {
  bool enabled = false;
  /// Default budget per tenant class (indexed by TenantClass), in the
  /// class's latency order: interactive tightest, best-effort loosest.
  std::array<double, kTenantClasses> default_s{0.5, 5.0, 30.0};

  double for_class(TenantClass tenant_class) const noexcept {
    return default_s[static_cast<std::size_t>(tenant_class)];
  }
};

/// The relative budget `request` submits under: its own deadline_s when
/// positive, else the class default. 0 when deadlines are disabled.
double deadline_budget_s(const DeadlineConfig& config,
                         const AnalysisRequest& request) noexcept;

// ---------------------------------------------------------------------------
// Retry

/// Bounded retry of failed executor invocations, using the shared
/// fault vocabulary so the chaos harness and the per-engine recovery
/// policies agree on backoff arithmetic.
struct RetryConfig {
  bool enabled = false;
  fault::RetryPolicy policy{3, 0.002, 2.0, 0.0};
};

// ---------------------------------------------------------------------------
// Graceful degradation (brownout)

/// Cumulative degradation steps: each level implies the ones before it.
enum class BrownoutLevel : std::uint8_t {
  kNormal = 0,
  kShedBestEffort = 1,  ///< reject best-effort submissions up front
  kShrinkBatch = 2,     ///< force-flush open batches (no delay windows)
  kServeStale = 3,      ///< answer misses from stale same-analysis entries
};

struct BrownoutConfig {
  bool enabled = false;
  /// Backlog thresholds that ENTER each level (admitted, unresolved
  /// requests).
  std::size_t shed_depth = 64;
  std::size_t shrink_depth = 128;
  std::size_t stale_depth = 256;
  /// A level exits only once depth falls to this fraction of its entry
  /// threshold (hysteresis; one level per update step).
  double exit_fraction = 0.5;
};

/// Maps the observed backlog to a BrownoutLevel with hysteresis. Pure
/// function of the observation sequence — no clock, no randomness — so
/// the DES twin replays it. Not thread-safe: ServicePipeline is its one
/// caller, and the live AnalysisService makes every pipeline call under
/// its own mutex.
class DegradationController {
 public:
  explicit DegradationController(BrownoutConfig config) : config_(config) {}
  DegradationController() : DegradationController(BrownoutConfig{}) {}

  /// Recomputes the level for the latest backlog and returns it.
  BrownoutLevel update(std::size_t queue_depth);

  BrownoutLevel level() const;

  struct Stats {
    std::uint64_t escalations = 0;  ///< level increases
    std::uint64_t recoveries = 0;   ///< level decreases
  };
  Stats stats() const;

  const BrownoutConfig& config() const noexcept { return config_; }

 private:
  std::size_t enter_depth(BrownoutLevel level) const noexcept;

  BrownoutConfig config_;
  BrownoutLevel level_ = BrownoutLevel::kNormal;
  Stats stats_;
};

// ---------------------------------------------------------------------------
// Chaos

/// Chaos rates applied at the executor boundary, per (job, attempt).
/// fail -> the attempt errors (worker-oom vocabulary); slow -> the
/// attempt takes slow_s longer (straggler); hang -> hang_s longer
/// (filesystem stall). Severity masks: fail > hang > slow.
struct ChaosConfig {
  bool enabled = false;
  std::uint64_t seed = 42;
  double fail_rate = 0.0;
  double slow_rate = 0.0;
  double slow_s = 0.010;
  double hang_rate = 0.0;
  double hang_s = 0.050;
};

/// One chaos verdict for an executor attempt.
struct ChaosOutcome {
  fault::FaultKind kind = fault::FaultKind::kNone;
  double delay_s = 0.0;  ///< added latency (slow / hang), 0 for fail

  bool fails() const noexcept {
    return kind == fault::FaultKind::kWorkerOomKill;
  }
  bool fired() const noexcept { return kind != fault::FaultKind::kNone; }
};

/// Order-independent chaos identity of a coalesced job: the XOR over
/// members of the mixed RequestKey hash, each combined with the key's
/// occurrence index within the job (index 0 leaves the term as the
/// plain mixed hash), then combined with the member count. Live ticket
/// numbering and DES job ids never enter the hash, which is what lets
/// the live service and the DES twin agree on every verdict. Exactly
/// the jobs carrying the same key multiset collide, on purpose: they
/// are the same work, so they suffer the same chaos.
std::uint64_t chaos_job_id(const EngineJob& job) noexcept;

/// Deterministic chaos decision point scoped EngineId::kService. Owns
/// its FaultPlan (the underlying injector keeps a pointer, so the
/// injector is non-copyable by design).
class ChaosInjector {
 public:
  explicit ChaosInjector(const ChaosConfig& config);

  ChaosInjector(const ChaosInjector&) = delete;
  ChaosInjector& operator=(const ChaosInjector&) = delete;

  /// The verdict for attempt `attempt` of the job identified by
  /// `chaos_id` (use chaos_job_id). Pure hash: any call order, any
  /// thread, same answer.
  ChaosOutcome decide(std::uint64_t chaos_id, int attempt) const noexcept;

  bool enabled() const noexcept { return config_.enabled; }
  const ChaosConfig& config() const noexcept { return config_; }

 private:
  ChaosConfig config_;
  fault::FaultPlan plan_;
  fault::FaultInjector injector_;
};

// ---------------------------------------------------------------------------
// Aggregate

/// Everything the reliability layer adds to ServiceConfig. All defaults
/// off: a default-constructed service behaves exactly as before.
struct ReliabilityConfig {
  DeadlineConfig deadline;
  RetryConfig retry;
  BrownoutConfig brownout;
};

}  // namespace mdtask::service
