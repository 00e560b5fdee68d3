// Mini-RADICAL-Pilot: a pilot-job engine (Sec. 3.3).
//
// Semantics reproduced from RADICAL-Pilot:
//  * The user acquires a Pilot (a resource allocation: N cores) and
//    submits Compute-Units (CUs) — self-contained tasks with optional
//    input/output file staging — to a UnitManager.
//  * Every CU walks the state model NEW -> STAGING_INPUT ->
//    AGENT_SCHEDULING -> EXECUTING -> STAGING_OUTPUT -> DONE, and every
//    transition is mediated by a database round trip (RP uses MongoDB
//    between client and agent). The configurable round-trip latency is
//    what caps RP's task throughput in Figs. 2-3.
//  * There is no communication primitive: data between CUs moves through
//    a shared filesystem (here an in-memory SharedFilesystem with byte
//    accounting), matching the paper's "no shuffle, filesystem-based
//    communication" limitation (Table 1).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mdtask/common/error.h"
#include "mdtask/common/thread_pool.h"
#include "mdtask/engines/core.h"
#include "mdtask/fault/injector.h"
#include "mdtask/fault/recovery.h"

namespace mdtask::rp {

/// Simulated MongoDB: a latency-charged key/value store mediating all
/// client/agent coordination. Latency is injected as a real sleep so the
/// engine's observed throughput genuinely degrades with it.
class MongoDbStore {
 public:
  explicit MongoDbStore(double roundtrip_latency_s = 0.0)
      : latency_s_(roundtrip_latency_s) {}

  /// One client<->DB round trip; returns after the simulated latency.
  void roundtrip();

  std::uint64_t roundtrips() const noexcept { return ops_.load(); }
  double latency_s() const noexcept { return latency_s_; }

 private:
  double latency_s_;
  std::atomic<std::uint64_t> ops_{0};
};

/// In-memory shared filesystem standing in for Lustre. All inter-task
/// data movement in RP flows through here, with byte accounting.
class SharedFilesystem {
 public:
  void put(const std::string& path, std::vector<std::uint8_t> data);
  Result<std::vector<std::uint8_t>> get(const std::string& path) const;
  bool exists(const std::string& path) const;
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  std::uint64_t bytes_read() const noexcept { return bytes_read_; }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<std::uint8_t>> files_;
  mutable std::atomic<std::uint64_t> bytes_written_{0};
  mutable std::atomic<std::uint64_t> bytes_read_{0};
};

/// CU lifecycle states (subset of RP's state model).
enum class UnitState {
  kNew,
  kStagingInput,
  kAgentScheduling,
  kExecuting,
  kStagingOutput,
  kDone,
  kFailed,
};
const char* to_string(UnitState state) noexcept;

/// A task description: the executable closure plus declared staging.
/// The closure receives the shared filesystem for explicit I/O.
struct ComputeUnitDescription {
  std::string name;
  std::function<void(SharedFilesystem&)> executable;
  /// Paths read before execution (must exist; sizes are accounted).
  std::vector<std::string> input_staging;
  /// Paths expected after execution (validated; missing -> kFailed).
  std::vector<std::string> output_staging;
};

/// Observable handle for a submitted CU.
class ComputeUnit {
 public:
  UnitState state() const noexcept {
    return state_.load(std::memory_order_acquire);
  }
  const std::string& name() const noexcept { return description_.name; }
  /// Set when state() == kFailed.
  const std::string& failure_reason() const noexcept { return failure_; }

  /// Blocks until the unit reaches a terminal state (kDone or kFailed)
  /// and returns it.
  UnitState wait() const;

 private:
  friend class UnitManager;
  explicit ComputeUnit(ComputeUnitDescription d)
      : description_(std::move(d)) {}
  ComputeUnitDescription description_;
  std::uint64_t task_index_ = 0;  ///< submission order; fault-injection key
  std::atomic<UnitState> state_{UnitState::kNew};
  std::string failure_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
};

/// A resource allocation: how many cores the pilot holds.
struct PilotDescription {
  std::size_t cores = 4;
  double db_roundtrip_latency_s = 0.0;
  /// Optional fault-injection plan (not owned; must outlive the manager).
  /// A faulted unit is retried at the pilot level with the plan's
  /// exponential backoff, bounded by retry.max_attempts.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Optional sink for fault/recovery events (not owned).
  fault::RecoveryLog* recovery_log = nullptr;
};

/// Client-side manager: owns the pilot's agent (a thread pool), the DB
/// and the shared filesystem.
class UnitManager {
 public:
  explicit UnitManager(PilotDescription pilot);

  /// Submits descriptions; returns handles. Execution starts immediately
  /// (each unit pays its DB transitions on an agent thread).
  std::vector<std::shared_ptr<ComputeUnit>> submit_units(
      std::vector<ComputeUnitDescription> descriptions);

  /// Blocks until all submitted units are DONE or FAILED.
  void wait_units();

  /// Registers an "rp" process track (client + one agent core per pilot
  /// core) and starts emitting per-unit spans with staging/executing
  /// phases plus a db_roundtrips counter.
  void enable_tracing(trace::Tracer& tracer);

  SharedFilesystem& filesystem() noexcept { return fs_; }
  MongoDbStore& database() noexcept { return db_; }
  engines::EngineMetrics& metrics() noexcept { return metrics_; }

 private:
  void run_unit(const std::shared_ptr<ComputeUnit>& unit);
  void transition(ComputeUnit& unit, UnitState next);

  PilotDescription pilot_;
  MongoDbStore db_;
  SharedFilesystem fs_;
  engines::EngineMetrics metrics_;
  mdtask::ThreadPool agent_;
  /// Client-side submission counter; atomic because several client
  /// threads may call submit_units on the same pilot at once.
  std::atomic<std::uint64_t> next_unit_index_{0};
  trace::Tracer* tracer_ = nullptr;
  trace::Track client_track_{};
};

}  // namespace mdtask::rp
