#include "mdtask/fault/recovery.h"

#include <algorithm>

namespace mdtask::fault {

const char* to_string(RecoveryAction action) noexcept {
  switch (action) {
    case RecoveryAction::kReexecuteLineage: return "reexecute-lineage";
    case RecoveryAction::kRestartWorker: return "restart-worker";
    case RecoveryAction::kRetryWithBackoff: return "retry-with-backoff";
    case RecoveryAction::kCheckpointRestart: return "checkpoint-restart";
    case RecoveryAction::kSpeculativeCopy: return "speculative-copy";
    case RecoveryAction::kGiveUp: return "give-up";
  }
  return "?";
}

RecoveryAction recovery_action(EngineId engine, FaultKind kind, int attempt,
                               const RetryPolicy& policy) noexcept {
  // The attempt that just failed is 0-based; the retry it would earn is
  // attempt + 1, which must stay inside the budget.
  if (attempt + 1 >= policy.max_attempts) return RecoveryAction::kGiveUp;
  switch (engine) {
    case EngineId::kSpark:
      // Lineage makes every loss recomputable (RDDs are deterministic).
      return RecoveryAction::kReexecuteLineage;
    case EngineId::kDask:
      // distributed restarts the worker for memory kills and crashes;
      // other transients are plain reschedules of the task, which we
      // fold into the same action for accounting.
      return (kind == FaultKind::kWorkerOomKill ||
              kind == FaultKind::kNodeCrash)
                 ? RecoveryAction::kRestartWorker
                 : RecoveryAction::kRetryWithBackoff;
    case EngineId::kRp:
      return RecoveryAction::kRetryWithBackoff;
    case EngineId::kService:
      // The serving front end's executor boundary retries the whole
      // engine job with bounded exponential backoff (docs/SERVICE.md).
      return RecoveryAction::kRetryWithBackoff;
    case EngineId::kMpi:
      return RecoveryAction::kCheckpointRestart;
  }
  return RecoveryAction::kGiveUp;
}

std::string RecoveryEvent::to_string() const {
  std::string out = fault::to_string(engine);
  out += " task=";
  out += std::to_string(task_id);
  out += " attempt=";
  out += std::to_string(attempt);
  out += " fault=";
  out += fault::to_string(fault);
  out += " action=";
  out += fault::to_string(action);
  return out;
}

const char* to_string(AutoscaleAction action) noexcept {
  switch (action) {
    case AutoscaleAction::kScaleUp: return "scale-up";
    case AutoscaleAction::kScaleDown: return "scale-down";
    case AutoscaleAction::kSpeculate: return "speculate";
    case AutoscaleAction::kRigidVeto: return "rigid-veto";
  }
  return "?";
}

std::string AutoscaleRecord::to_string() const {
  std::string out = fault::to_string(engine);
  out += " autoscale#";
  out += std::to_string(seq);
  out += ' ';
  out += fault::to_string(action);
  out += " count=";
  out += std::to_string(count);
  out += " pool=";
  out += std::to_string(pool_size);
  out += " queue=";
  out += std::to_string(queue_depth);
  out += " task=";
  out += std::to_string(task_id);
  return out;
}

std::string MembershipRecord::to_string() const {
  std::string out = fault::to_string(engine);
  out += " elastic#";
  out += std::to_string(seq);
  out += ' ';
  out += fault::to_string(kind);
  out += " count=";
  out += std::to_string(count);
  out += " pool=";
  out += std::to_string(pool_size);
  out += " preempted=";
  out += std::to_string(preempted);
  return out;
}

std::string ExchangeRecord::to_string() const {
  std::string out = "repex round=";
  out += std::to_string(round);
  out += " pair=";
  out += std::to_string(slot_lo);
  out += '/';
  out += std::to_string(slot_hi);
  out += " configs=";
  out += std::to_string(config_lo);
  out += '/';
  out += std::to_string(config_hi);
  out += " accept=";
  out += accepted ? '1' : '0';
  return out;
}

void RecoveryLog::record(RecoveryEvent event) {
  trace::Tracer* tracer = nullptr;
  trace::Track track{};
  {
    std::lock_guard lk(mu_);
    tracer = tracer_;
    track = track_;
    events_.push_back(event);
  }
  if (tracer != nullptr) {
    trace::Args args;
    args.emplace_back("task", std::to_string(event.task_id));
    args.emplace_back("attempt", std::to_string(event.attempt));
    args.emplace_back("engine", fault::to_string(event.engine));
    tracer->complete(track,
                     std::string("fault:") + fault::to_string(event.fault),
                     "fault", event.ts_us, 0.0, args);
    args.emplace_back("backoff_s", std::to_string(event.backoff_s));
    tracer->complete(
        track, std::string("recovery:") + fault::to_string(event.action),
        "recovery", event.ts_us, 0.0, std::move(args));
  }
}

void RecoveryLog::record_membership(MembershipRecord event) {
  trace::Tracer* tracer = nullptr;
  trace::Track track{};
  {
    std::lock_guard lk(mu_);
    tracer = tracer_;
    track = track_;
    membership_.push_back(event);
  }
  if (tracer != nullptr) {
    trace::Args args;
    args.emplace_back("seq", std::to_string(event.seq));
    args.emplace_back("count", std::to_string(event.count));
    args.emplace_back("pool", std::to_string(event.pool_size));
    args.emplace_back("preempted", std::to_string(event.preempted));
    args.emplace_back("engine", fault::to_string(event.engine));
    tracer->complete(track,
                     std::string("elastic:") + fault::to_string(event.kind),
                     "elastic", event.ts_us, 0.0, std::move(args));
  }
}

void RecoveryLog::record_autoscale(AutoscaleRecord event) {
  trace::Tracer* tracer = nullptr;
  trace::Track track{};
  {
    std::lock_guard lk(mu_);
    tracer = tracer_;
    track = track_;
    autoscale_.push_back(event);
  }
  if (tracer != nullptr) {
    trace::Args args;
    args.emplace_back("seq", std::to_string(event.seq));
    args.emplace_back("count", std::to_string(event.count));
    args.emplace_back("pool", std::to_string(event.pool_size));
    args.emplace_back("queue", std::to_string(event.queue_depth));
    args.emplace_back("task", std::to_string(event.task_id));
    args.emplace_back("engine", fault::to_string(event.engine));
    tracer->complete(
        track, std::string("autoscale:") + fault::to_string(event.action),
        "autoscale", event.ts_us, 0.0, std::move(args));
  }
}

void RecoveryLog::record_exchange(ExchangeRecord event) {
  trace::Tracer* tracer = nullptr;
  trace::Track track{};
  {
    std::lock_guard lk(mu_);
    tracer = tracer_;
    track = track_;
    exchange_.push_back(event);
  }
  if (tracer != nullptr) {
    trace::Args args;
    args.emplace_back("round", std::to_string(event.round));
    args.emplace_back("pair", std::to_string(event.slot_lo) + "/" +
                                  std::to_string(event.slot_hi));
    args.emplace_back("configs", std::to_string(event.config_lo) + "/" +
                                     std::to_string(event.config_hi));
    args.emplace_back("accept", event.accepted ? "1" : "0");
    tracer->complete(track, "repex:exchange", "repex", event.ts_us, 0.0,
                     std::move(args));
  }
}

std::vector<RecoveryEvent> RecoveryLog::events() const {
  std::lock_guard lk(mu_);
  return events_;
}

std::vector<MembershipRecord> RecoveryLog::membership_events() const {
  std::lock_guard lk(mu_);
  return membership_;
}

std::vector<AutoscaleRecord> RecoveryLog::autoscale_events() const {
  std::lock_guard lk(mu_);
  return autoscale_;
}

std::vector<ExchangeRecord> RecoveryLog::exchange_events() const {
  std::lock_guard lk(mu_);
  return exchange_;
}

std::vector<std::string> RecoveryLog::canonical() const {
  std::vector<std::string> lines;
  {
    std::lock_guard lk(mu_);
    lines.reserve(events_.size() + membership_.size() + autoscale_.size() +
                  exchange_.size());
    for (const auto& e : events_) lines.push_back(e.to_string());
    for (const auto& m : membership_) lines.push_back(m.to_string());
    for (const auto& a : autoscale_) lines.push_back(a.to_string());
    for (const auto& x : exchange_) lines.push_back(x.to_string());
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

std::size_t RecoveryLog::size() const {
  std::lock_guard lk(mu_);
  return events_.size();
}

std::size_t RecoveryLog::membership_size() const {
  std::lock_guard lk(mu_);
  return membership_.size();
}

std::size_t RecoveryLog::autoscale_size() const {
  std::lock_guard lk(mu_);
  return autoscale_.size();
}

std::size_t RecoveryLog::exchange_size() const {
  std::lock_guard lk(mu_);
  return exchange_.size();
}

void CheckpointStore::set_cost_model(CheckpointCostModel model) {
  std::lock_guard lk(mu_);
  cost_model_ = model;
}

void CheckpointStore::put(const std::string& key,
                          std::vector<std::uint8_t> data) {
  std::lock_guard lk(mu_);
  write_s_ += cost_model_.write_s(data.size());
  store_[key] = std::move(data);
}

bool CheckpointStore::contains(const std::string& key) const {
  std::lock_guard lk(mu_);
  return store_.contains(key);
}

std::vector<std::uint8_t> CheckpointStore::get(const std::string& key) const {
  std::lock_guard lk(mu_);
  auto it = store_.find(key);
  if (it == store_.end()) return {};
  restore_s_ += cost_model_.restore_s(it->second.size());
  return it->second;
}

std::size_t CheckpointStore::size() const {
  std::lock_guard lk(mu_);
  return store_.size();
}

std::uint64_t CheckpointStore::bytes_stored() const {
  std::lock_guard lk(mu_);
  std::uint64_t bytes = 0;
  for (const auto& [key, data] : store_) bytes += data.size();
  return bytes;
}

double CheckpointStore::modeled_write_s() const {
  std::lock_guard lk(mu_);
  return write_s_;
}

double CheckpointStore::modeled_restore_s() const {
  std::lock_guard lk(mu_);
  return restore_s_;
}

}  // namespace mdtask::fault
