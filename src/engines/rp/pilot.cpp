#include "mdtask/engines/rp/pilot.h"

namespace mdtask::rp {

void MongoDbStore::roundtrip() {
  ops_.fetch_add(1, std::memory_order_relaxed);
  if (latency_s_ > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(latency_s_));
  }
}

void SharedFilesystem::put(const std::string& path,
                           std::vector<std::uint8_t> data) {
  bytes_written_ += data.size();
  std::lock_guard lk(mu_);
  files_[path] = std::move(data);
}

Result<std::vector<std::uint8_t>> SharedFilesystem::get(
    const std::string& path) const {
  std::lock_guard lk(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Error(ErrorCode::kIoError, "no such staged file: " + path);
  }
  bytes_read_ += it->second.size();
  return it->second;
}

bool SharedFilesystem::exists(const std::string& path) const {
  std::lock_guard lk(mu_);
  return files_.contains(path);
}

const char* to_string(UnitState state) noexcept {
  switch (state) {
    case UnitState::kNew: return "NEW";
    case UnitState::kStagingInput: return "STAGING_INPUT";
    case UnitState::kAgentScheduling: return "AGENT_SCHEDULING";
    case UnitState::kExecuting: return "EXECUTING";
    case UnitState::kStagingOutput: return "STAGING_OUTPUT";
    case UnitState::kDone: return "DONE";
    case UnitState::kFailed: return "FAILED";
  }
  return "?";
}

UnitManager::UnitManager(PilotDescription pilot)
    : pilot_(pilot),
      db_(pilot.db_roundtrip_latency_s),
      agent_(pilot.cores) {}

std::vector<std::shared_ptr<ComputeUnit>> UnitManager::submit_units(
    std::vector<ComputeUnitDescription> descriptions) {
  std::vector<std::shared_ptr<ComputeUnit>> units;
  units.reserve(descriptions.size());
  for (auto& d : descriptions) {
    // Submission itself is a DB write (client -> MongoDB).
    db_.roundtrip();
    metrics_.db_roundtrips += 1;
    units.push_back(
        std::shared_ptr<ComputeUnit>(new ComputeUnit(std::move(d))));
    units.back()->task_index_ =
        next_unit_index_.fetch_add(1, std::memory_order_relaxed);
  }
  for (const auto& unit : units) {
    agent_.post([this, unit] { run_unit(unit); });
  }
  return units;
}

void UnitManager::wait_units() {
  agent_.wait_idle();
  if (tracer_ != nullptr) {
    tracer_->counter(client_track_, "db_roundtrips", tracer_->now_us(),
                     static_cast<double>(metrics_.db_roundtrips.load(
                         std::memory_order_relaxed)));
  }
}

void UnitManager::enable_tracing(trace::Tracer& tracer) {
  // Call before submit_units: the pool's enable_tracing publishes the
  // tracer to agent threads; units already in flight stay untraced.
  const std::uint32_t pid = tracer.process("rp");
  client_track_ = tracer.thread(pid, "client");
  agent_.enable_tracing(tracer, pid, "agent-core");
  tracer_ = &tracer;
}

void UnitManager::transition(ComputeUnit& unit, UnitState next) {
  // Every state change is written back to the database; this is the
  // architectural bottleneck the paper identifies (Sec. 4.1).
  db_.roundtrip();
  metrics_.db_roundtrips += 1;
  {
    std::lock_guard lk(unit.mu_);
    unit.state_.store(next, std::memory_order_release);
  }
  unit.cv_.notify_all();
}

UnitState ComputeUnit::wait() const {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [this] {
    const UnitState s = state_.load(std::memory_order_acquire);
    return s == UnitState::kDone || s == UnitState::kFailed;
  });
  return state_.load(std::memory_order_acquire);
}

void UnitManager::run_unit(const std::shared_ptr<ComputeUnit>& unit) {
  metrics_.tasks_executed += 1;
  // The unit span and the phase spans below are RAII: every early
  // return (failed staging, throwing executable) still closes them.
  const trace::Track* worker = ThreadPool::current_worker_track();
  const trace::Track track =
      (tracer_ != nullptr && worker != nullptr) ? *worker : client_track_;
  trace::Span unit_span;
  if (tracer_ != nullptr) {
    unit_span = tracer_->span(track,
                              unit->description_.name.empty()
                                  ? std::string("unit")
                                  : unit->description_.name,
                              "unit");
  }
  transition(*unit, UnitState::kStagingInput);
  {
    trace::Span stage_span;
    if (tracer_ != nullptr) {
      stage_span = tracer_->span(track, "staging-input", "staging");
    }
    for (const auto& path : unit->description_.input_staging) {
      auto data = fs_.get(path);
      if (!data.ok()) {
        unit->failure_ = data.error().to_string();
        unit_span.arg("error", unit->failure_);
        transition(*unit, UnitState::kFailed);
        return;
      }
      metrics_.staged_bytes += data.value().size();
    }
  }
  transition(*unit, UnitState::kAgentScheduling);
  transition(*unit, UnitState::kExecuting);
  {
    trace::Span exec_span;
    if (tracer_ != nullptr) {
      exec_span = tracer_->span(track, "executing", "task");
    }
    const fault::FaultPlan* plan = pilot_.fault_plan;
    const bool inject = plan != nullptr && !plan->empty();
    for (int attempt = 0;; ++attempt) {
      try {
        if (inject) {
          const fault::FaultInjector injector(*plan, fault::EngineId::kRp);
          const fault::FaultSpec spec =
              injector.decide(unit->task_index_, attempt);
          if (spec.kind == fault::FaultKind::kStraggler ||
              spec.kind == fault::FaultKind::kFilesystemStall) {
            if (spec.delay_s > 0.0) {
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(spec.delay_s));
            }
          } else if (spec.kind != fault::FaultKind::kNone) {
            throw fault::InjectedFault(spec.kind, unit->task_index_,
                                       attempt);
          }
        }
        if (unit->description_.executable) {
          unit->description_.executable(fs_);
        }
        break;
      } catch (const fault::InjectedFault& f) {
        const fault::RecoveryAction action = fault::recovery_action(
            fault::EngineId::kRp, f.kind(), attempt, plan->retry);
        const double backoff =
            fault::backoff_for_attempt(plan->retry, attempt + 1);
        if (pilot_.recovery_log != nullptr) {
          pilot_.recovery_log->record(
              {fault::EngineId::kRp, unit->task_index_, attempt, f.kind(),
               action, backoff,
               tracer_ != nullptr ? tracer_->now_us() : 0.0});
        }
        if (action == fault::RecoveryAction::kGiveUp) {
          unit->failure_ =
              Error(ErrorCode::kUnavailable, f.what())
                  .with_task({"rp", unit->task_index_, attempt,
                              fault::to_string(f.kind())})
                  .to_string();
          unit_span.arg("error", unit->failure_);
          transition(*unit, UnitState::kFailed);
          return;
        }
        // Pilot-level retry: the unit walks back through scheduling (a
        // DB round trip each way) and re-executes after the backoff.
        transition(*unit, UnitState::kAgentScheduling);
        if (backoff > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff));
        }
        transition(*unit, UnitState::kExecuting);
      } catch (const std::exception& e) {
        unit->failure_ = Error(ErrorCode::kInternal, e.what())
                             .with_task({"rp", unit->task_index_, attempt})
                             .to_string();
        unit_span.arg("error", unit->failure_);
        transition(*unit, UnitState::kFailed);
        return;
      }
    }
  }
  transition(*unit, UnitState::kStagingOutput);
  {
    trace::Span stage_span;
    if (tracer_ != nullptr) {
      stage_span = tracer_->span(track, "staging-output", "staging");
    }
    for (const auto& path : unit->description_.output_staging) {
      if (!fs_.exists(path)) {
        unit->failure_ = "missing declared output: " + path;
        unit_span.arg("error", unit->failure_);
        transition(*unit, UnitState::kFailed);
        return;
      }
      auto data = fs_.get(path);
      if (data.ok()) metrics_.staged_bytes += data.value().size();
    }
  }
  transition(*unit, UnitState::kDone);
}

}  // namespace mdtask::rp
