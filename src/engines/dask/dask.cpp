#include "mdtask/engines/dask/dask.h"

namespace mdtask::dask {

DaskClient::DaskClient(DaskConfig config) : config_(config) {
  const std::size_t n = std::max<std::size_t>(1, config_.workers);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

DaskClient::~DaskClient() {
  wait_all();
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void DaskClient::enable_tracing(trace::Tracer& tracer) {
  const std::uint32_t pid = tracer.process("dask");
  const trace::Track client = tracer.thread(pid, "client");
  std::vector<trace::Track> tracks;
  tracks.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    tracks.push_back(tracer.thread(pid, "worker-" + std::to_string(i)));
  }
  std::lock_guard lk(mu_);
  client_track_ = client;
  tracks_ = std::move(tracks);
  tracer_ = &tracer;
}

void DaskClient::wire_and_schedule(
    const std::shared_ptr<detail::TaskNode>& node,
    const std::vector<std::shared_ptr<detail::TaskNode>>& deps) {
  {
    std::lock_guard lk(mu_);
    ++outstanding_;
    // Submission order is fixed by the (single-threaded) client's graph
    // construction, so these ids are deterministic run to run.
    node->id = next_task_id_++;
  }
  node->pending_deps.store(static_cast<int>(deps.size()),
                           std::memory_order_relaxed);
  int already_done = 0;
  for (const auto& dep : deps) {
    std::lock_guard lk(dep->mu);
    if (dep->finished) {
      ++already_done;
    } else {
      dep->dependents.push_back(node);
    }
  }
  if (node->pending_deps.fetch_sub(already_done) == already_done) {
    enqueue_ready(node);
  }
}

void DaskClient::enqueue_ready(std::shared_ptr<detail::TaskNode> node) {
  {
    std::lock_guard lk(node->mu);
    if (node->scheduled) return;  // guard against double enqueue
    node->scheduled = true;
  }
  {
    std::lock_guard lk(mu_);
    if (tracer_ != nullptr && tracer_->enabled()) {
      node->enqueue_us = tracer_->now_us();
    }
    ready_.push_back(std::move(node));
  }
  cv_.notify_one();
}

void DaskClient::on_finished(const std::shared_ptr<detail::TaskNode>& node) {
  // Each task completes exactly once: release its dependents and retire
  // the node.
  std::vector<std::shared_ptr<detail::TaskNode>> dependents;
  {
    std::lock_guard lk(node->mu);
    node->finished = true;
    dependents.swap(node->dependents);
  }
  for (auto& dep : dependents) {
    if (dep->pending_deps.fetch_sub(1) == 1) enqueue_ready(dep);
  }
  {
    std::lock_guard lk(mu_);
    --outstanding_;
    if (outstanding_ == 0 && ready_.empty() && inflight_ == 0) {
      idle_cv_.notify_all();
    }
  }
}

void DaskClient::wait_all() {
  trace::Tracer* tracer = nullptr;
  trace::Track client{};
  {
    std::unique_lock lk(mu_);
    idle_cv_.wait(lk, [this] {
      return outstanding_ == 0 && ready_.empty() && inflight_ == 0;
    });
    tracer = tracer_;
    client = client_track_;
  }
  if (tracer != nullptr) {
    const double now = tracer->now_us();
    tracer->counter(client, "tasks_executed", now,
                    static_cast<double>(metrics_.tasks_executed.load(
                        std::memory_order_relaxed)));
    tracer->counter(client, "worker_restarts", now,
                    static_cast<double>(worker_restarts_.load()));
  }
}

void DaskClient::worker_loop(std::size_t index) {
  for (;;) {
    std::shared_ptr<detail::TaskNode> node;
    trace::Tracer* tracer = nullptr;
    trace::Track track{};
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !ready_.empty(); });
      if (stop_ && ready_.empty()) return;
      node = std::move(ready_.front());
      ready_.pop_front();
      ++inflight_;
      if (tracer_ != nullptr && index < tracks_.size()) {
        tracer = tracer_;
        track = tracks_[index];
      }
    }
    if (tracer != nullptr && tracer->enabled()) {
      if (node->enqueue_us >= 0.0) {
        const double picked_us = tracer->now_us();
        tracer->complete(track, "queue-wait", "queue", node->enqueue_us,
                         std::max(0.0, picked_us - node->enqueue_us));
      }
      {
        MDTASK_SCOPED_SPAN(task_span, *tracer, track, "task", "task");
        node->run();
      }
    } else {
      node->run();
    }
    {
      std::lock_guard lk(mu_);
      --inflight_;
    }
    on_finished(node);
  }
}

}  // namespace mdtask::dask
