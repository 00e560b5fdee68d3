// The one decision core of the serving front end (docs/SERVICE.md).
//
// ServicePipeline makes every serving decision and owns all serving
// state: the admission ledger, the fair-share scheduler, the result
// cache, the batcher, the chaos injector, the brownout controller, the
// table of admitted unresolved requests and their joiners, and the
// per-class outcome counters. It is single-threaded, never reads a
// clock and never blocks: each call takes the caller's `now` and
// returns what the caller must act on. Two thin drivers run it:
//
//   AnalysisService   wall clock: a mutex around the pipeline, the
//                     dispatcher and deadline timer threads, promises,
//                     a ThreadPool and real sleeps (service.h);
//   simulate_service  virtual time: sim::Resource servers, events, the
//                     job cost model, the autoscale tick, latency and
//                     tenant reports, the canonical log (sim_service.h).
//
// The decisions, in pipeline order:
//
//   arrive          admit, or shed (brownout level 1, then the ledger)
//   route_next      pop in fair-share order: cache hit, join an
//                   in-flight key, stale answer (brownout level 3), or
//                   add to a batch, which may close a job
//   dispatch        strip members whose deadline passed in the batch
//   begin_attempt   job deadline check and the attempt's chaos verdict
//   retry_after     a failed attempt: RecoveryLog line and retry backoff
//   complete        resolve a job's members and their joiners
//   expire /        reap overdue requests wherever they wait
//   reap_overdue
//
// Each decision that resolves admitted requests appends one Resolution
// per request; resolution is idempotent (a request resolves once).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mdtask/common/error.h"
#include "mdtask/fault/recovery.h"
#include "mdtask/service/admission.h"
#include "mdtask/service/batcher.h"
#include "mdtask/service/fair_share.h"
#include "mdtask/service/reliability.h"
#include "mdtask/service/request.h"
#include "mdtask/service/result_cache.h"

namespace mdtask::service {

struct ServiceConfig {
  AdmissionConfig admission;
  FairShareConfig fair_share;
  CacheConfig cache;
  BatchConfig batch;
  /// All reliability mechanisms default OFF: a default-constructed
  /// service behaves exactly as the pre-reliability pipeline.
  ReliabilityConfig reliability;
  ChaosConfig chaos;
};

/// Outcome counters for one tenant class. Every arrival ends in exactly
/// one of rejected, brownout_shed, completed, failed, deadline_expired.
struct ClassCounters {
  std::uint64_t requests = 0;          ///< arrivals
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;          ///< shed at admission (kOverloaded)
  std::uint64_t brownout_shed = 0;     ///< best-effort shed by brownout
  std::uint64_t cache_hits = 0;
  std::uint64_t dedup_joins = 0;       ///< joined an in-flight computation
  std::uint64_t completed = 0;         ///< resolved with an answer
  std::uint64_t failed = 0;            ///< resolved with an engine error
  std::uint64_t deadline_expired = 0;  ///< reaped with kDeadlineExceeded
};

/// Every counter the pipeline keeps: per class, plus job totals.
struct PipelineCounters {
  std::array<ClassCounters, kTenantClasses> classes{};
  std::uint64_t engine_jobs = 0;       ///< jobs dispatched
  std::uint64_t batched_requests = 0;  ///< requests carried by jobs
  std::uint64_t stale_served = 0;      ///< brownout stale cache answers
  std::uint64_t retries = 0;           ///< attempts after a failed one
  std::uint64_t chaos_failures = 0;    ///< chaos-failed attempts
  std::uint64_t chaos_delays = 0;      ///< chaos slow/hang attempts

  /// One per-class counter summed over the classes.
  std::uint64_t total(std::uint64_t ClassCounters::*counter) const noexcept;
};

/// One admitted request resolved by a pipeline decision.
struct Resolution {
  enum class Kind : std::uint8_t { kCompleted, kFailed, kExpired };
  Kind kind = Kind::kCompleted;
  AnalysisRequest request;  ///< as admitted (absolute deadline_s)
  double arrival_s = 0.0;
  CachedResult result;
};

/// The arrival decision for one request.
struct Arrival {
  Status status;            ///< ok: admitted; else the kOverloaded shed
  bool brownout = false;    ///< shed by brownout level 1, not the ledger
  double deadline_s = 0.0;  ///< when admitted: absolute deadline, 0 = none
};

/// What routing one popped request decided.
enum class Route : std::uint8_t {
  kGone,     ///< already resolved (reaped while queued)
  kHit,      ///< answered from the cache
  kJoined,   ///< waits on the in-flight computation of its key
  kStale,    ///< brownout answered it from a stale same-analysis entry
  kBatched,  ///< added to a batch; `job` is set when that closed one
};

struct Routed {
  Route route = Route::kGone;
  std::optional<EngineJob> job;
};

/// A job the pipeline dispatched, with its chaos identity.
struct DispatchedJob {
  EngineJob job;
  std::uint64_t chaos_id = 0;
};

class ServicePipeline {
 public:
  explicit ServicePipeline(const ServiceConfig& config);

  ServicePipeline(const ServicePipeline&) = delete;
  ServicePipeline& operator=(const ServicePipeline&) = delete;

  /// Feeds the admitted backlog to the brownout controller.
  BrownoutLevel observe_pressure();

  /// Admits `request` (ledger reservation, absolute deadline, queued in
  /// fair-share order) or sheds it.
  Arrival arrive(AnalysisRequest request, double now);

  /// Pops the next request in fair-share order and routes it; nullopt
  /// when the queue is empty. Hits and stale answers append a
  /// Resolution to `resolved`.
  std::optional<Routed> route_next(double now,
                                   std::vector<Resolution>* resolved);

  /// Open batches whose delay window has passed.
  std::vector<EngineJob> due_batches(double now);
  /// Every open batch.
  std::vector<EngineJob> flush_batches();
  /// Brownout level 2 or above: open batches flush at once.
  bool shrinking() const;

  /// With deadlines on, strips members that expired in the batch (or
  /// were reaped there) and that nobody joined; their cache slots
  /// resolve so later lookups miss afresh. Counts the job and assigns
  /// its chaos identity; nullopt when no member is left to run.
  std::optional<DispatchedJob> dispatch(EngineJob job, double now,
                                        std::vector<Resolution>* resolved);

  /// Starts attempt `attempt` (0-based) at `now`: kDeadlineExceeded when
  /// the job's deadline has passed (complete the job with it), else the
  /// attempt's chaos verdict.
  Result<ChaosOutcome> begin_attempt(const DispatchedJob& job, int attempt,
                                     double now);

  /// Records a failed attempt (a chaos failure counts and goes to the
  /// RecoveryLog). Returns the backoff before the next attempt, or
  /// nullopt when the retry budget is spent.
  std::optional<double> retry_after(const DispatchedJob& job, int attempt,
                                    const ChaosOutcome& verdict, double now);

  /// Resolves every member of `job` and every joiner of a member's key
  /// with `result` (one payload per member, in order; any other count
  /// is a kInternal error). Answers are cached; errors are not.
  void complete(const DispatchedJob& job,
                Result<std::vector<ResultPayload>> result,
                std::vector<Resolution>* resolved);

  /// Reaps request `id` with kDeadlineExceeded if it is unresolved.
  void expire(std::uint64_t id, std::vector<Resolution>* resolved);
  /// Reaps every unresolved request whose deadline is at or before
  /// `now`; returns the earliest deadline still ahead.
  std::optional<double> reap_overdue(double now,
                                     std::vector<Resolution>* resolved);

  std::size_t invalidate_store(std::uint64_t fingerprint);
  /// Mirrors chaos failures into `log` (nullptr: off).
  void set_recovery_log(fault::RecoveryLog* log) noexcept {
    recovery_log_ = log;
  }

  /// Admitted requests not yet resolved.
  std::size_t outstanding() const noexcept { return pending_.size(); }
  const PipelineCounters& counters() const noexcept { return counters_; }
  const FairShareScheduler& scheduler() const noexcept { return scheduler_; }
  const Batcher& batcher() const noexcept { return batcher_; }
  const AdmissionController& admission() const noexcept {
    return admission_;
  }
  const ResultCache& cache() const noexcept { return cache_; }
  BrownoutLevel brownout_level() const { return brownout_.level(); }
  const ServiceConfig& config() const noexcept { return config_; }

 private:
  struct Pending {
    AnalysisRequest request;
    double arrival_s = 0.0;
  };

  /// Resolves `id` if it is still pending; counts it under `kind`.
  void resolve(std::uint64_t id, CachedResult result, Resolution::Kind kind,
               std::vector<Resolution>* resolved);
  ClassCounters& class_of(const AnalysisRequest& request) noexcept {
    return counters_.classes[static_cast<std::size_t>(request.tenant_class)];
  }

  ServiceConfig config_;
  fault::RetryPolicy retry_policy_;
  int max_attempts_ = 1;
  AdmissionController admission_;
  FairShareScheduler scheduler_;
  ResultCache cache_;
  Batcher batcher_;
  ChaosInjector chaos_;
  DegradationController brownout_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  /// Request ids waiting on the in-flight computation of a key. A
  /// reaped joiner stays listed; resolving it again is a no-op.
  std::unordered_map<RequestKey, std::vector<std::uint64_t>, RequestKeyHash>
      joiners_;
  PipelineCounters counters_;
  fault::RecoveryLog* recovery_log_ = nullptr;
};

}  // namespace mdtask::service
