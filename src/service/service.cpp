#include "mdtask/service/service.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

namespace mdtask::service {

namespace {

void sleep_s(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

}  // namespace

AnalysisService::AnalysisService(ServiceConfig config, ThreadPool& pool,
                                 Executor executor)
    : pool_(pool),
      executor_(std::move(executor)),
      epoch_(std::chrono::steady_clock::now()),
      pipeline_(config),
      dispatcher_([this] { dispatcher_loop(); }),
      timer_(config.reliability.deadline.enabled
                 ? std::thread([this] { timer_loop(); })
                 : std::thread()) {}

AnalysisService::~AnalysisService() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
    signal_ = true;
  }
  cv_.notify_all();
  timer_cv_.notify_all();
  dispatcher_.join();
  if (timer_.joinable()) timer_.join();
  // The dispatcher flushed every batch before exiting; jobs may still
  // be running on the pool. Wait until every request resolved AND every
  // runner left run_job: no runner may touch a dead service.
  std::unique_lock lk(mu_);
  drain_cv_.wait(lk, [this] {
    return pipeline_.outstanding() == 0 && active_runners_ == 0;
  });
}

double AnalysisService::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

std::future<CachedResult> AnalysisService::submit(AnalysisRequest request) {
  std::promise<CachedResult> promise;
  std::future<CachedResult> future = promise.get_future();
  {
    std::lock_guard lk(mu_);
    request.id = ++next_ticket_;
    const std::uint64_t id = request.id;
    if (stopping_) {
      promise.set_value(CachedResult(
          Error(ErrorCode::kUnavailable, "service is shutting down")));
      return future;
    }
    const Arrival arrival = pipeline_.arrive(std::move(request), now_s());
    if (!arrival.status.ok()) {
      promise.set_value(CachedResult(arrival.status.error()));
      return future;
    }
    promises_.emplace(id, std::move(promise));
    signal_ = true;
    timer_signal_ = true;
  }
  cv_.notify_one();
  timer_cv_.notify_one();
  return future;
}

std::vector<AnalysisService::Completion> AnalysisService::settle(
    std::vector<Resolution>& resolved) {
  std::vector<Completion> completions;
  completions.reserve(resolved.size());
  for (Resolution& r : resolved) {
    const auto it = promises_.find(r.request.id);
    completions.push_back(
        Completion{std::move(it->second), std::move(r.result)});
    promises_.erase(it);
  }
  // Notify while holding mu_: the drain()/destructor waiter cannot
  // leave its wait (and destroy drain_cv_) before this thread releases
  // the lock, so the notify never touches a dying object.
  if (!resolved.empty() && pipeline_.outstanding() == 0) {
    drain_cv_.notify_all();
  }
  resolved.clear();
  return completions;
}

void AnalysisService::fulfil(std::vector<Completion> completions) {
  for (Completion& c : completions) {
    c.promise.set_value(std::move(c.result));
  }
}

void AnalysisService::dispatch_job(EngineJob job) {
  std::shared_ptr<DispatchedJob> dispatched;
  std::vector<Completion> expirations;
  {
    std::lock_guard lk(mu_);
    std::vector<Resolution> resolved;
    std::optional<DispatchedJob> run =
        pipeline_.dispatch(std::move(job), now_s(), &resolved);
    expirations = settle(resolved);
    if (run) {
      dispatched = std::make_shared<DispatchedJob>(std::move(*run));
      ++active_runners_;
    }
  }
  fulfil(std::move(expirations));
  if (dispatched) {
    // The dispatcher is not a pool worker, so the job lands in the
    // pool's shared overflow queue, where any idle worker picks it up.
    pool_.post([this, dispatched] { run_job(dispatched); });
  }
}

Result<std::vector<ResultPayload>> AnalysisService::run_attempts(
    const DispatchedJob& job) {
  for (int attempt = 0;; ++attempt) {
    Result<ChaosOutcome> verdict = [&] {
      std::lock_guard lk(mu_);
      return pipeline_.begin_attempt(job, attempt, now_s());
    }();
    if (!verdict.ok()) return verdict.error();
    const ChaosOutcome chaos = verdict.value();
    sleep_s(chaos.delay_s);
    Result<std::vector<ResultPayload>> result =
        chaos.fails()
            ? Result<std::vector<ResultPayload>>(
                  Error(ErrorCode::kUnavailable, "chaos: injected fault")
                      .with_task({"service", job.chaos_id, attempt,
                                  fault::to_string(chaos.kind)}))
            : executor_(job.job);
    if (result.ok()) return result;
    const std::optional<double> backoff = [&] {
      std::lock_guard lk(mu_);
      return pipeline_.retry_after(job, attempt, chaos, now_s());
    }();
    if (!backoff) return result;
    sleep_s(*backoff);
  }
}

void AnalysisService::run_job(const std::shared_ptr<DispatchedJob>& job) {
  Result<std::vector<ResultPayload>> result = run_attempts(*job);
  std::vector<Completion> completions;
  {
    std::lock_guard lk(mu_);
    std::vector<Resolution> resolved;
    pipeline_.complete(*job, std::move(result), &resolved);
    completions = settle(resolved);
    if (--active_runners_ == 0) drain_cv_.notify_all();
  }
  fulfil(std::move(completions));
}

void AnalysisService::timer_loop() {
  std::unique_lock lk(mu_);
  while (!stopping_) {
    // Reap every overdue future NOW: a pending request never blocks
    // past its deadline, wherever it sits (scheduler queue, open batch,
    // joiner list, running job).
    std::vector<Resolution> resolved;
    const std::optional<double> next =
        pipeline_.reap_overdue(now_s(), &resolved);
    std::vector<Completion> expirations = settle(resolved);
    lk.unlock();
    fulfil(std::move(expirations));
    lk.lock();
    const auto woken = [this] { return timer_signal_ || stopping_; };
    if (next) {
      timer_cv_.wait_for(
          lk, std::chrono::duration<double>(std::max(0.0, *next - now_s())),
          woken);
    } else {
      timer_cv_.wait(lk, woken);
    }
    timer_signal_ = false;
  }
}

void AnalysisService::dispatcher_loop() {
  for (;;) {
    std::vector<Completion> completions;
    std::vector<EngineJob> jobs;
    bool exit_after_flush = false;
    {
      std::lock_guard lk(mu_);
      const double now = now_s();
      pipeline_.observe_pressure();
      // Everything queued is routed in this pass, so fair share orders
      // only what one pass sees (docs/SERVICE.md, "One pipeline, two
      // clocks").
      std::vector<Resolution> resolved;
      while (std::optional<Routed> routed =
                 pipeline_.route_next(now, &resolved)) {
        if (routed->job) jobs.push_back(std::move(*routed->job));
      }
      completions = settle(resolved);
      for (EngineJob& job : pipeline_.due_batches(now)) {
        jobs.push_back(std::move(job));
      }
      // While a drain() is waiting or the service stops, every pass
      // force-flushes open batches: nothing may sit out a delay window.
      // Brownout level 2 does the same under pressure.
      exit_after_flush = stopping_;
      if (stopping_ || draining_ > 0 || pipeline_.shrinking()) {
        for (EngineJob& job : pipeline_.flush_batches()) {
          jobs.push_back(std::move(job));
        }
      }
    }
    fulfil(std::move(completions));
    for (EngineJob& job : jobs) dispatch_job(std::move(job));
    // A submit after stopping_ is refused, so nothing can still queue.
    if (exit_after_flush) return;

    std::unique_lock lk(mu_);
    if (signal_ || stopping_ || pipeline_.scheduler().queued() > 0) {
      signal_ = false;
      continue;
    }
    const auto wake = [this] { return signal_ || stopping_; };
    if (const auto deadline = pipeline_.batcher().next_deadline()) {
      cv_.wait_for(
          lk, std::chrono::duration<double>(std::max(0.0, *deadline - now_s())),
          wake);
    } else {
      cv_.wait(lk, wake);
    }
    signal_ = false;
  }
}

void AnalysisService::drain() {
  // The dispatcher does the flushing (it may still hold requests that
  // have not reached the batcher yet); draining_ > 0 makes it flush
  // open batches on every pass until everything resolved.
  std::unique_lock lk(mu_);
  ++draining_;
  signal_ = true;
  cv_.notify_all();
  drain_cv_.wait(lk, [this] { return pipeline_.outstanding() == 0; });
  --draining_;
}

std::size_t AnalysisService::ingest_store(const std::string& path,
                                          std::uint64_t fingerprint) {
  std::lock_guard lk(mu_);
  auto [it, inserted] = ingested_.try_emplace(path, fingerprint);
  if (inserted || it->second == fingerprint) return 0;
  const std::uint64_t stale = it->second;
  it->second = fingerprint;
  return pipeline_.invalidate_store(stale);
}

void AnalysisService::set_recovery_log(fault::RecoveryLog* log) {
  std::lock_guard lk(mu_);
  pipeline_.set_recovery_log(log);
}

AnalysisService::Stats AnalysisService::stats() const {
  std::lock_guard lk(mu_);
  Stats out;
  static_cast<PipelineCounters&>(out) = pipeline_.counters();
  out.admission = pipeline_.admission().stats();
  out.cache = pipeline_.cache().stats();
  out.rejected = out.total(&ClassCounters::rejected);
  out.deadline_expired = out.total(&ClassCounters::deadline_expired);
  out.brownout_shed = out.total(&ClassCounters::brownout_shed);
  out.completed = out.total(&ClassCounters::completed) +
                  out.total(&ClassCounters::failed) + out.deadline_expired;
  out.brownout_level = pipeline_.brownout_level();
  return out;
}

}  // namespace mdtask::service
