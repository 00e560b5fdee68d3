#include "mdtask/service/pipeline.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

namespace mdtask::service {

namespace {

Error deadline_error(const char* stage) {
  return Error(ErrorCode::kDeadlineExceeded, stage);
}

}  // namespace

std::uint64_t PipelineCounters::total(
    std::uint64_t ClassCounters::*counter) const noexcept {
  std::uint64_t sum = 0;
  for (const ClassCounters& c : classes) sum += c.*counter;
  return sum;
}

ServicePipeline::ServicePipeline(const ServiceConfig& config)
    : config_(config),
      retry_policy_(config.reliability.retry.policy),
      admission_(config.admission),
      scheduler_(config.fair_share),
      cache_(config.cache),
      batcher_(config.batch),
      chaos_(config.chaos),
      brownout_(config.reliability.brownout) {
  if (!config.reliability.retry.enabled) retry_policy_.max_attempts = 1;
  max_attempts_ = std::max(1, retry_policy_.max_attempts);
}

BrownoutLevel ServicePipeline::observe_pressure() {
  return brownout_.update(pending_.size());
}

Arrival ServicePipeline::arrive(AnalysisRequest request, double now) {
  ClassCounters& counts = class_of(request);
  ++counts.requests;
  // Brownout level 1, cheapest first: best-effort traffic is shed before
  // it reserves anything.
  if (request.tenant_class == TenantClass::kBestEffort &&
      brownout_.level() >= BrownoutLevel::kShedBestEffort) {
    ++counts.brownout_shed;
    return {Error(ErrorCode::kOverloaded,
                  "brownout: shedding best-effort traffic"),
            true};
  }
  Status admitted = admission_.admit(request);
  if (!admitted.ok()) {
    ++counts.rejected;
    return {std::move(admitted)};
  }
  ++counts.admitted;
  // The submitted deadline_s is a RELATIVE budget; it becomes an
  // ABSOLUTE deadline on the caller's clock here, at admission.
  const double budget = deadline_budget_s(config_.reliability.deadline,
                                          request);
  request.deadline_s = budget > 0.0 ? now + budget : 0.0;
  const Arrival out{Status(), false, request.deadline_s};
  pending_.emplace(request.id, Pending{request, now});
  scheduler_.push(std::move(request));
  return out;
}

std::optional<Routed> ServicePipeline::route_next(
    double now, std::vector<Resolution>* resolved) {
  AnalysisRequest request;
  if (!scheduler_.pop(&request)) return std::nullopt;
  if (!pending_.contains(request.id)) return Routed{Route::kGone, {}};
  ClassCounters& counts = class_of(request);
  const RequestKey key = request_key(request);
  const ResultCache::Lookup lookup = cache_.lookup_or_join(key);
  switch (lookup.outcome) {
    case ResultCache::Outcome::kHit:
      ++counts.cache_hits;
      resolve(request.id, CachedResult(lookup.payload),
              Resolution::Kind::kCompleted, resolved);
      return Routed{Route::kHit, {}};
    case ResultCache::Outcome::kJoined:
      ++counts.dedup_joins;
      joiners_[key].push_back(request.id);
      return Routed{Route::kJoined, {}};
    case ResultCache::Outcome::kMiss:
      break;
  }
  // Brownout level 3: answer from a stale same-analysis entry instead
  // of computing. The just-created in-flight slot resolves with an error
  // so the key stays uncached and unpoisoned; no joiner can exist yet.
  if (brownout_.level() >= BrownoutLevel::kServeStale) {
    if (auto stale = cache_.lookup_stale(key)) {
      cache_.fulfill(key, CachedResult(Error(
                              ErrorCode::kUnavailable,
                              "brownout: stale-served, compute cancelled")));
      ++counters_.stale_served;
      resolve(request.id, CachedResult(std::move(stale)),
              Resolution::Kind::kCompleted, resolved);
      return Routed{Route::kStale, {}};
    }
  }
  return Routed{Route::kBatched, batcher_.add(std::move(request), now)};
}

std::vector<EngineJob> ServicePipeline::due_batches(double now) {
  return batcher_.due(now);
}

std::vector<EngineJob> ServicePipeline::flush_batches() {
  return batcher_.flush_all();
}

bool ServicePipeline::shrinking() const {
  return brownout_.level() >= BrownoutLevel::kShrinkBatch;
}

std::optional<DispatchedJob> ServicePipeline::dispatch(
    EngineJob job, double now, std::vector<Resolution>* resolved) {
  if (config_.reliability.deadline.enabled) {
    auto& members = job.requests;
    for (auto it = members.begin(); it != members.end();) {
      const RequestKey key = request_key(*it);
      const bool owner_alive = pending_.contains(it->id);
      const bool expired = it->deadline_s > 0.0 && now >= it->deadline_s;
      if ((owner_alive && !expired) || joiners_.contains(key)) {
        ++it;
        continue;
      }
      cache_.fulfill(key,
                     CachedResult(deadline_error("deadline passed in batch")));
      expire(it->id, resolved);
      it = members.erase(it);
    }
  }
  if (job.requests.empty()) return std::nullopt;
  ++counters_.engine_jobs;
  counters_.batched_requests += job.requests.size();
  DispatchedJob out;
  out.chaos_id = chaos_.enabled() ? chaos_job_id(job) : job.job_id;
  out.job = std::move(job);
  return out;
}

Result<ChaosOutcome> ServicePipeline::begin_attempt(const DispatchedJob& job,
                                                    int attempt, double now) {
  if (job.job.deadline_s > 0.0 && now >= job.job.deadline_s) {
    return deadline_error("job deadline passed before attempt");
  }
  const ChaosOutcome verdict = chaos_.decide(job.chaos_id, attempt);
  if (verdict.delay_s > 0.0) ++counters_.chaos_delays;
  return verdict;
}

std::optional<double> ServicePipeline::retry_after(const DispatchedJob& job,
                                                   int attempt,
                                                   const ChaosOutcome& verdict,
                                                   double now) {
  if (verdict.fails()) {
    ++counters_.chaos_failures;
    if (recovery_log_ != nullptr) {
      fault::RecoveryEvent event;
      event.engine = fault::EngineId::kService;
      event.task_id = job.chaos_id;
      event.attempt = attempt;
      event.fault = verdict.kind;
      event.action = fault::recovery_action(fault::EngineId::kService,
                                            verdict.kind, attempt,
                                            retry_policy_);
      event.backoff_s = fault::backoff_for_attempt(retry_policy_, attempt + 1);
      event.ts_us = now * 1e6;
      recovery_log_->record(event);
    }
  }
  if (attempt + 1 >= max_attempts_) return std::nullopt;
  ++counters_.retries;
  return fault::backoff_for_attempt(retry_policy_, attempt + 1);
}

void ServicePipeline::complete(const DispatchedJob& dispatched,
                               Result<std::vector<ResultPayload>> result,
                               std::vector<Resolution>* resolved) {
  const EngineJob& job = dispatched.job;
  if (result.ok() && result.value().size() != job.requests.size()) {
    result = Error(ErrorCode::kInternal,
                   "executor returned " +
                       std::to_string(result.value().size()) +
                       " payloads for " +
                       std::to_string(job.requests.size()) + " requests");
  }
  const Resolution::Kind kind = result.ok() ? Resolution::Kind::kCompleted
                                            : Resolution::Kind::kFailed;
  for (std::size_t i = 0; i < job.requests.size(); ++i) {
    const AnalysisRequest& request = job.requests[i];
    const RequestKey key = request_key(request);
    const CachedResult outcome =
        result.ok() ? CachedResult(std::make_shared<const ResultPayload>(
                          std::move(result.value()[i])))
                    : CachedResult(result.error());
    // Fulfil BEFORE resolving joiners: a later lookup of the key sees
    // the cached answer (or a fresh miss after an error).
    cache_.fulfill(key, outcome);
    resolve(request.id, outcome, kind, resolved);
    const auto joined = joiners_.find(key);
    if (joined == joiners_.end()) continue;
    const std::vector<std::uint64_t> waiters = std::move(joined->second);
    joiners_.erase(joined);
    for (const std::uint64_t waiter : waiters) {
      resolve(waiter, outcome, kind, resolved);
    }
  }
}

void ServicePipeline::expire(std::uint64_t id,
                             std::vector<Resolution>* resolved) {
  resolve(id, CachedResult(deadline_error("deadline exceeded")),
          Resolution::Kind::kExpired, resolved);
}

std::optional<double> ServicePipeline::reap_overdue(
    double now, std::vector<Resolution>* resolved) {
  std::optional<double> next;
  std::vector<std::uint64_t> overdue;
  for (const auto& [id, pending] : pending_) {
    const double deadline = pending.request.deadline_s;
    if (deadline <= 0.0) continue;
    if (now >= deadline) {
      overdue.push_back(id);
    } else if (!next || deadline < *next) {
      next = deadline;
    }
  }
  for (const std::uint64_t id : overdue) expire(id, resolved);
  return next;
}

std::size_t ServicePipeline::invalidate_store(std::uint64_t fingerprint) {
  return cache_.invalidate_store(fingerprint);
}

void ServicePipeline::resolve(std::uint64_t id, CachedResult result,
                              Resolution::Kind kind,
                              std::vector<Resolution>* resolved) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  pending_.erase(it);
  admission_.release(pending.request);
  ClassCounters& counts = class_of(pending.request);
  switch (kind) {
    case Resolution::Kind::kCompleted: ++counts.completed; break;
    case Resolution::Kind::kFailed: ++counts.failed; break;
    case Resolution::Kind::kExpired: ++counts.deadline_expired; break;
  }
  resolved->push_back(Resolution{kind, std::move(pending.request),
                                 pending.arrival_s, std::move(result)});
}

}  // namespace mdtask::service
