// Observation side of the mdtask::autoscale control loop.
//
// A MetricsWindow aggregates the signals a scaling policy feeds on:
// the latest pool/queue observation (pool size, busy servers, queue
// depth) and a sliding window of completed-task durations from which the
// per-tick snapshot derives p50/p95/p99. Producers are the DES replays
// (task completions, and the pool observation before each tick); the
// only consumer is Policy::decide/speculation_threshold_s via
// snapshot().
//
// Percentiles use the nearest-rank definition: a snapshot is a pure
// function of the multiset of windowed samples, so the DES — which
// records completions in virtual-time order — gets byte-identical
// snapshots for the same seed. The window is thread-safe: concurrent
// producers may feed it while another thread takes snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace mdtask::autoscale {

/// Nearest-rank percentile of `samples` (q in [0, 100]); sorts a copy.
/// Returns 0 for an empty sample set.
double duration_percentile(std::vector<double> samples, double q);

/// One coherent observation handed to policies: the latest pool state
/// plus duration percentiles over the completed-task window.
struct MetricsSnapshot {
  double now_s = 0.0;          ///< control-loop time of the snapshot
  std::size_t pool_size = 0;   ///< servers in the pool (post-drain view)
  std::size_t busy = 0;        ///< servers currently holding a task
  std::size_t queue_depth = 0; ///< tasks waiting for a server
  double utilization = 0.0;    ///< busy / pool_size, clamped to [0, 1]
  std::uint64_t completed = 0; ///< completions recorded since reset()
  double p50_s = 0.0;          ///< windowed completed-task duration p50
  double p95_s = 0.0;
  double p99_s = 0.0;
};

/// Thread-safe sliding-window aggregator. `capacity` bounds the
/// duration window (ring buffer; older completions age out) so long
/// runs track the recent regime rather than the whole history.
class MetricsWindow {
 public:
  explicit MetricsWindow(std::size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Latest pool observation (typically once per control tick).
  void observe_pool(std::size_t pool_size, std::size_t busy,
                    std::size_t queue_depth);

  /// One completed task took `seconds` from first dispatch to
  /// completion.
  void record_task_duration(double seconds);

  /// Coherent snapshot stamped with `now_s` (the caller's clock; the
  /// DES replays pass virtual seconds).
  MetricsSnapshot snapshot(double now_s = 0.0) const;

  /// Completions recorded since construction/reset.
  std::uint64_t completed() const;

  void reset();

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<double> window_;  ///< ring buffer of recent durations
  std::size_t next_ = 0;        ///< ring cursor once the window is full
  std::uint64_t completed_ = 0;
  std::size_t pool_size_ = 0;
  std::size_t busy_ = 0;
  std::size_t queue_depth_ = 0;
};

}  // namespace mdtask::autoscale
