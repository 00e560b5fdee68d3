// Request batching: coalesce compatible requests into one engine job.
//
// Requests that read the SAME trajectory store with the SAME analysis
// family share their dominant cost — streaming the store through the
// engine — even when their parameters differ. The batcher holds such
// requests in an open batch for at most `max_delay_s`, dispatching
// early when the batch reaches `max_batch`; the engine then amortizes
// one pass over the store across every request in the job. Requests
// for different (store, family) pairs never coalesce.
//
// Time is the caller's clock: wall seconds in the live service,
// virtual seconds in the DES — the batcher itself never reads a clock,
// which is what keeps the simulation deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "mdtask/service/request.h"

namespace mdtask::service {

/// One coalesced engine execution: every request reads the same store
/// with the same family. Requests keep submission order.
struct EngineJob {
  std::uint64_t job_id = 0;
  AnalysisFamily family = AnalysisFamily::kRmsdSeries;
  std::uint64_t store_fingerprint = 0;
  /// Tightest ABSOLUTE member deadline (0 = no member carries one):
  /// the whole job must land by the earliest deadline it answers.
  double deadline_s = 0.0;
  std::vector<AnalysisRequest> requests;

  std::uint64_t total_bytes() const noexcept {
    std::uint64_t sum = 0;
    for (const AnalysisRequest& r : requests) sum += r.input_bytes;
    return sum;
  }
};

struct BatchConfig {
  std::size_t max_batch = 8;      ///< dispatch early at this size
  double max_delay_s = 0.005;     ///< oldest request waits at most this
  bool enabled = true;            ///< off: every request is its own job
};

/// Holds the open batch of each (store, family). Not thread-safe:
/// ServicePipeline is its one caller, and the live AnalysisService makes
/// every pipeline call under its own mutex.
class Batcher {
 public:
  explicit Batcher(BatchConfig config) : config_(config) {}
  Batcher() : Batcher(BatchConfig{}) {}

  /// Adds `request` at time `now_s`. Returns a job when the add closed
  /// a batch (size limit reached, or batching disabled); otherwise the
  /// request waits and the caller should arm a timer for
  /// next_deadline().
  std::optional<EngineJob> add(AnalysisRequest request, double now_s);

  /// Closes and returns every batch whose delay window expired at
  /// `now_s`, in deterministic (store, family) key order.
  std::vector<EngineJob> due(double now_s);

  /// Earliest open-batch deadline, if any batch is open.
  std::optional<double> next_deadline() const;

  /// Closes and returns every open batch (drain path).
  std::vector<EngineJob> flush_all();

  /// Requests waiting in open batches.
  std::size_t pending() const;

  /// Open (not yet sealed) batches; each will consume one engine slot
  /// when it dispatches — the DES reserves capacity against this.
  std::size_t open_batches() const;

  /// Jobs produced so far (job ids are 1..jobs()).
  std::uint64_t jobs() const;

  const BatchConfig& config() const noexcept { return config_; }

 private:
  using BatchKey = std::pair<std::uint64_t, std::uint8_t>;
  struct Open {
    std::vector<AnalysisRequest> requests;
    double deadline_s = 0.0;      ///< flush deadline (delay window)
    double job_deadline_s = 0.0;  ///< tightest member deadline (0 = none)
  };

  EngineJob seal(BatchKey key, Open&& open);

  BatchConfig config_;
  /// std::map: due()/flush_all() emit in key order, deterministically.
  std::map<BatchKey, Open> open_;
  std::size_t pending_ = 0;
  std::uint64_t next_job_ = 0;
};

}  // namespace mdtask::service
