#include "mdtask/autoscale/metrics.h"

#include <algorithm>
#include <cmath>

namespace mdtask::autoscale {

double duration_percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  q = std::clamp(q, 0.0, 100.0);
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  return samples[rank == 0 ? 0 : rank - 1];
}

void MetricsWindow::observe_pool(std::size_t pool_size, std::size_t busy,
                                 std::size_t queue_depth) {
  std::lock_guard lk(mu_);
  pool_size_ = pool_size;
  busy_ = busy;
  queue_depth_ = queue_depth;
}

void MetricsWindow::record_task_duration(double seconds) {
  std::lock_guard lk(mu_);
  ++completed_;
  if (window_.size() < capacity_) {
    window_.push_back(seconds);
    return;
  }
  window_[next_] = seconds;
  next_ = (next_ + 1) % capacity_;
}

MetricsSnapshot MetricsWindow::snapshot(double now_s) const {
  MetricsSnapshot snap;
  snap.now_s = now_s;
  std::vector<double> samples;
  {
    std::lock_guard lk(mu_);
    snap.pool_size = pool_size_;
    snap.busy = busy_;
    snap.queue_depth = queue_depth_;
    snap.completed = completed_;
    samples = window_;
  }
  if (snap.pool_size > 0) {
    snap.utilization = std::min(
        1.0, static_cast<double>(snap.busy) /
                 static_cast<double>(snap.pool_size));
  }
  if (!samples.empty()) {
    std::sort(samples.begin(), samples.end());
    const auto at = [&](double q) {
      const auto n = static_cast<double>(samples.size());
      const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
      return samples[rank == 0 ? 0 : rank - 1];
    };
    snap.p50_s = at(50.0);
    snap.p95_s = at(95.0);
    snap.p99_s = at(99.0);
  }
  return snap;
}

void MetricsWindow::reset() {
  std::lock_guard lk(mu_);
  window_.clear();
  next_ = 0;
  completed_ = 0;
  pool_size_ = 0;
  busy_ = 0;
  queue_depth_ = 0;
}

}  // namespace mdtask::autoscale
