// The live multi-tenant serving front end (docs/SERVICE.md).
//
// AnalysisService is the wall-clock driver of the serving pipeline
// (pipeline.h): every decision — admission, fair share, cache, batching,
// deadlines, retry, brownout, chaos — is the ServicePipeline's, and the
// simulate_service DES twin runs the same one. The driver owns only the
// timing and the threads:
//
//   submit()           -> pipeline arrive, under the service mutex
//   dispatcher thread  -> observe brownout pressure, route everything
//                         queued, flush due batches, post jobs
//   ThreadPool worker  -> the attempt loop around the executor, with
//                         real chaos delays and retry backoff sleeps
//   timer thread       -> reap overdue requests (deadlines on only)
//
// The executor callback is the engine boundary: it receives one
// EngineJob and returns one ResultPayload per request in the job, so
// the service layer stays agnostic of WHICH engine (Spark/Dask/RP
// mini-runtime, streamed workflow, ...) answers requests. Requests
// resolve through futures of CachedResult; a shed request fails fast
// with ErrorCode::kOverloaded, a failed engine job fails every request
// it carried (and every in-flight joiner) without poisoning the cache.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mdtask/common/error.h"
#include "mdtask/common/thread_pool.h"
#include "mdtask/fault/recovery.h"
#include "mdtask/service/pipeline.h"

namespace mdtask::service {

class AnalysisService {
 public:
  /// Runs one coalesced engine job; must return exactly one payload
  /// per job.requests entry (same order) or an Error that fails them
  /// all. Called on ThreadPool workers; may run concurrently with
  /// itself for different jobs.
  using Executor =
      std::function<Result<std::vector<ResultPayload>>(const EngineJob&)>;

  /// The pool must outlive the service. The executor is copied.
  AnalysisService(ServiceConfig config, ThreadPool& pool,
                  Executor executor);

  /// Drains: flushes open batches, waits for every admitted request to
  /// resolve, then stops the dispatcher.
  ~AnalysisService();

  AnalysisService(const AnalysisService&) = delete;
  AnalysisService& operator=(const AnalysisService&) = delete;

  /// Submits one request. `request.id` is overwritten with an internal
  /// ticket (returned results identify requests by future, not id).
  /// The future resolves with the payload, the engine error, or an
  /// immediate kOverloaded when admission sheds the request.
  std::future<CachedResult> submit(AnalysisRequest request);

  /// Blocks until every admitted request has resolved (open batches
  /// are force-flushed first so nothing waits out a delay window).
  void drain();

  /// Registers the store at `path` with its content fingerprint. When
  /// the path was ingested before under a DIFFERENT fingerprint (the
  /// file was rewritten), every cached answer computed against the old
  /// fingerprint is evicted automatically — a stale store can never
  /// serve stale answers past its re-ingest. Returns the evictions (0
  /// on first ingest or when the fingerprint is unchanged).
  std::size_t ingest_store(const std::string& path,
                           std::uint64_t fingerprint);

  /// Mirrors chaos-failure / recovery decisions into `log` (the shared
  /// fault vocabulary; scope EngineId::kService). Call before
  /// submitting traffic; pass nullptr to stop. The DES twin writes the
  /// same canonical lines for the same chaos seed.
  void set_recovery_log(fault::RecoveryLog* log);

  /// The pipeline's counters (the DES report carries the same names)
  /// plus the ledger, cache and brownout state.
  struct Stats : PipelineCounters {
    AdmissionController::Stats admission;
    ResultCache::Stats cache;
    /// Requests resolved: classes' completed + failed + deadline_expired.
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;          ///< shed at admission (kOverloaded)
    std::uint64_t deadline_expired = 0;  ///< failed kDeadlineExceeded
    std::uint64_t brownout_shed = 0;     ///< best-effort shed by brownout
    BrownoutLevel brownout_level = BrownoutLevel::kNormal;
  };

  Stats stats() const;

  const ServiceConfig& config() const noexcept {
    return pipeline_.config();
  }

 private:
  /// A resolved promise and its value, completed outside the lock.
  struct Completion {
    std::promise<CachedResult> promise;
    CachedResult result;
  };

  double now_s() const;
  void dispatcher_loop();
  /// Deadline reaper (started only when deadlines are enabled).
  void timer_loop();
  void dispatch_job(EngineJob job);
  void run_job(const std::shared_ptr<DispatchedJob>& job);
  /// The attempt loop around the executor: chaos delays and retry
  /// backoff are real sleeps, every decision is the pipeline's.
  Result<std::vector<ResultPayload>> run_attempts(const DispatchedJob& job);
  /// Takes the promises of `resolved` (mu_ held) and wakes drain()
  /// waiters once nothing is outstanding.
  std::vector<Completion> settle(std::vector<Resolution>& resolved);
  static void fulfil(std::vector<Completion> completions);

  ThreadPool& pool_;
  Executor executor_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;  ///< guards everything below
  ServicePipeline pipeline_;
  std::condition_variable cv_;        ///< dispatcher wakeups
  std::condition_variable drain_cv_;  ///< outstanding/active_runners_ -> 0
  std::condition_variable timer_cv_;  ///< timer-thread wakeups
  bool signal_ = false;        ///< work arrived since last look
  bool timer_signal_ = false;  ///< new deadlines for the timer
  bool stopping_ = false;
  std::size_t draining_ = 0;   ///< active drain() calls
  /// Pool callbacks in flight: the destructor waits for them so no
  /// runner outlives the service.
  std::size_t active_runners_ = 0;
  std::uint64_t next_ticket_ = 0;
  std::unordered_map<std::uint64_t, std::promise<CachedResult>> promises_;
  /// Ingest registry: store path -> last-seen fingerprint, so a
  /// re-ingest under a changed fingerprint auto-invalidates the old
  /// one's cached answers (ingest_store).
  std::unordered_map<std::string, std::uint64_t> ingested_;

  /// Last members: threads start against a fully-constructed object.
  std::thread dispatcher_;
  std::thread timer_;  ///< joinable only when deadlines are enabled
};

}  // namespace mdtask::service
