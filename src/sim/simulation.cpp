#include "mdtask/sim/simulation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mdtask::sim {

void Simulation::at(double t, Callback fn) {
  if (t < now_) {
    throw std::invalid_argument("Simulation::at: time in the past");
  }
  queue_.push(Event{t, next_seq_++, std::move(fn)});
}

double Simulation::run() {
  while (!queue_.empty()) {
    // priority_queue::top returns const ref; move out via const_cast is
    // UB-adjacent, so copy the callback handle (cheap: std::function).
    Event event = queue_.top();
    queue_.pop();
    now_ = event.time;
    ++processed_;
    event.fn();
  }
  return now_;
}

Resource::Resource(Simulation& simulation, std::size_t servers)
    : simulation_(&simulation), next_slot_(servers) {
  for (std::size_t s = 0; s < servers; ++s) free_slots_.insert(s);
}

void Resource::set_trace(trace::Tracer* tracer, std::uint32_t pid,
                         std::string server_prefix, std::string span_name) {
  tracer_ = tracer;
  if (tracer == nullptr) return;
  trace_pid_ = pid;
  slot_prefix_ = std::move(server_prefix);
  span_name_ = std::move(span_name);
  slot_tracks_.clear();
  // Register the idle servers up front so tid order matches server
  // order even before the first acquire.
  if (!free_slots_.empty()) track_for(*free_slots_.rbegin());
}

trace::Track Resource::track_for(std::size_t slot) {
  while (slot_tracks_.size() <= slot) {
    slot_tracks_.push_back(tracer_->thread(
        trace_pid_,
        slot_prefix_ + "-" + std::to_string(slot_tracks_.size())));
  }
  return slot_tracks_[slot];
}

Resource::HoldId Resource::acquire(double work,
                                   Simulation::Callback on_complete) {
  const HoldId id = next_id_++;
  Hold& hold = holds_[id];
  hold.work = work;
  hold.on_complete = std::move(on_complete);
  pending_.push_back(id);
  dispatch();
  return id;
}

void Resource::dispatch() {
  while (!free_slots_.empty() && !pending_.empty()) {
    const HoldId id = pending_.front();
    pending_.pop_front();
    start(id);
  }
}

void Resource::start(HoldId id) {
  Hold& hold = holds_.at(id);
  hold.at = {simulation_->now(), *free_slots_.begin()};
  free_slots_.erase(free_slots_.begin());
  busy_time_ += hold.work;
  if (trace_) {
    hold.trace_index = trace_->size();
    trace_->push_back({hold.at.start_s, hold.at.start_s + hold.work});
  }
  // The DES knows the full interval at start time, so the span is
  // recorded immediately with virtual timestamps — this is what makes
  // simulated traces deterministic (no wall clock involved).
  if (tracer_ != nullptr) {
    tracer_->complete(track_for(hold.at.slot), span_name_, "task",
                      hold.at.start_s * 1e6, hold.work * 1e6);
  }
  hold.run = next_run_++;
  inflight_.emplace(hold.run, id);
  simulation_->after(hold.work,
                     [this, run = hold.run] { finish(run); });
}

void Resource::finish(std::uint64_t run) {
  const auto it = inflight_.find(run);
  if (it == inflight_.end()) return;  // preempted or cancelled: gone
  const HoldId id = it->second;
  inflight_.erase(it);
  auto node = holds_.extract(id);
  // The server still exists while its completion callback runs — a
  // remove_servers() issued from inside the callback (the DES
  // node-crash path) must be able to claim it.
  finishing_ = Finishing{id, node.mapped().at};
  node.mapped().on_complete();
  finishing_.reset();
  release(node.mapped().at.slot);
}

void Resource::stop(Hold& hold) {
  const double now = simulation_->now();
  busy_time_ -= std::max(0.0, hold.at.start_s + hold.work - now);
  if (hold.trace_index != kNpos && trace_ != nullptr &&
      hold.trace_index < trace_->size()) {
    (*trace_)[hold.trace_index].end = now;
  }
  inflight_.erase(hold.run);
  hold.run = kQueued;
}

void Resource::release(std::size_t slot) {
  if (to_remove_ > 0) {
    --to_remove_;  // this server leaves the pool instead of recycling
    return;
  }
  free_slots_.insert(slot);
  dispatch();
}

bool Resource::cancel(HoldId id) {
  const auto it = holds_.find(id);
  if (it == holds_.end()) return false;
  if (it->second.run == kQueued) {
    pending_.erase(std::find(pending_.begin(), pending_.end(), id));
    holds_.erase(it);
    return true;
  }
  stop(it->second);
  const std::size_t slot = it->second.at.slot;
  holds_.erase(it);
  release(slot);
  return true;
}

std::optional<Resource::Placement> Resource::running(HoldId id) const {
  if (finishing_ && finishing_->id == id) return finishing_->at;
  const auto it = holds_.find(id);
  if (it == holds_.end() || it->second.run == kQueued) return std::nullopt;
  return it->second.at;
}

std::size_t Resource::retire_idle(std::size_t count) {
  const std::size_t idle = std::min(count, free_slots_.size());
  for (std::size_t n = 0; n < idle; ++n) {
    free_slots_.erase(std::prev(free_slots_.end()));
  }
  return idle;
}

void Resource::add_servers(std::size_t count) {
  // Cancel pending removals first, then grow for real.
  const std::size_t cancelled = std::min(count, to_remove_);
  to_remove_ -= cancelled;
  for (count -= cancelled; count > 0; --count) {
    free_slots_.insert(next_slot_++);
  }
  dispatch();
}

void Resource::remove_servers(std::size_t count) {
  // Idle servers leave immediately; busy ones leave when they finish.
  count -= retire_idle(count);
  // Clamp the lazy removals to servers that actually exist: busy holds
  // not already tagged, plus one momentarily running its completion
  // callback. Excess requests are dropped — the pool cannot go below
  // empty — so a later add_servers() grows the pool for real instead of
  // cancelling phantom departures.
  const std::size_t busy = inflight_.size() + (finishing_ ? 1 : 0);
  const std::size_t removable = busy > to_remove_ ? busy - to_remove_ : 0;
  to_remove_ += std::min(count, removable);
}

std::size_t Resource::kill_servers(std::size_t count) {
  // Idle servers leave immediately, exactly like remove_servers.
  count -= retire_idle(count);
  std::size_t preempted = 0;
  // Beyond that, the youngest holds are preempted (a deterministic
  // choice): the unserved remainder of each hold is refunded from
  // busy_time_, the hold restarts from scratch at the back of the
  // queue, and the server leaves now. The hold's scheduled completion
  // event finds it gone and does nothing.
  for (; count > 0 && !inflight_.empty(); --count) {
    const HoldId id = std::prev(inflight_.end())->second;
    stop(holds_.at(id));
    pending_.push_back(id);
    ++preempted;
  }
  // Pending lazy removals cannot outnumber the remaining busy servers.
  to_remove_ =
      std::min(to_remove_, inflight_.size() + (finishing_ ? 1 : 0));
  return preempted;
}

double NetworkModel::bcast_tree_s(std::uint64_t bytes,
                                  std::size_t ranks) const {
  if (ranks <= 1) return 0.0;
  const double rounds = std::ceil(std::log2(static_cast<double>(ranks)));
  return rounds * point_to_point_s(bytes);
}

double NetworkModel::bcast_torrent_s(std::uint64_t bytes,
                                     std::size_t ranks) const {
  if (ranks <= 1) return 0.0;
  // Pipelined chunked distribution: one payload transfer plus a small
  // log-depth term; effectively flat in P (Fig. 8's Spark/Dask curves).
  const double depth = std::ceil(std::log2(static_cast<double>(ranks)));
  return point_to_point_s(bytes) + depth * latency_s * 10.0;
}

double ClusterSpec::total_effective_cores() const noexcept {
  const double used_per_node =
      static_cast<double>(total_cores()) / static_cast<double>(nodes);
  const double physical =
      static_cast<double>(machine.physical_cores_per_node);
  const double physical_used = std::min(used_per_node, physical);
  const double ht_used = std::max(0.0, used_per_node - physical_used);
  return static_cast<double>(nodes) * machine.core_speed *
         (physical_used + ht_used * machine.hyperthread_efficiency);
}

MachineProfile comet() {
  MachineProfile m;
  m.name = "Comet";
  m.cores_per_node = 24;
  m.physical_cores_per_node = 24;
  m.hyperthread_efficiency = 1.0;
  m.core_speed = 1.05;  // slightly faster cores; "Comet slightly
                        // outperforms Wrangler" (Sec. 4.1)
  m.network.latency_s = 1.2e-5;
  m.network.bandwidth_Bps = 7e9;    // InfiniBand FDR
  m.network.bisection_Bps = 2.8e10;
  m.filesystem_Bps = 6e9;           // Lustre
  m.filesystem.seek_latency_s = 8e-4;  // Lustre metadata round-trip
  m.filesystem.stream_Bps = 1.0e9;     // one client's sequential rate
  m.filesystem.aggregate_Bps = 6e9;    // = filesystem_Bps
  return m;
}

MachineProfile wrangler() {
  MachineProfile m;
  m.name = "Wrangler";
  m.cores_per_node = 48;            // 24 physical, hyper-threading
                                    // enabled (Sec. 4): 48 logical
  m.physical_cores_per_node = 24;
  m.hyperthread_efficiency = 0.35;  // second thread adds ~35% throughput
  m.core_speed = 1.0;
  m.network.latency_s = 1.5e-5;
  m.network.bandwidth_Bps = 5e9;
  m.network.bisection_Bps = 2e10;
  m.filesystem_Bps = 1e10;          // Wrangler's flash-based storage
  m.filesystem.seek_latency_s = 2e-4;  // flash: cheap seeks
  m.filesystem.stream_Bps = 1.5e9;
  m.filesystem.aggregate_Bps = 1e10;   // = filesystem_Bps
  return m;
}

std::vector<double> utilization_timeline(
    const std::vector<ServiceInterval>& intervals, std::size_t servers,
    std::size_t buckets, double horizon) {
  std::vector<double> out(std::max<std::size_t>(1, buckets), 0.0);
  if (intervals.empty() || servers == 0) return out;
  if (horizon <= 0.0) {
    for (const auto& iv : intervals) horizon = std::max(horizon, iv.end);
  }
  if (horizon <= 0.0) return out;
  const double width = horizon / static_cast<double>(out.size());
  for (const auto& interval : intervals) {
    const auto first = static_cast<std::size_t>(interval.start / width);
    for (std::size_t b = first; b < out.size(); ++b) {
      const double lo = static_cast<double>(b) * width;
      const double hi = lo + width;
      if (interval.start >= hi) continue;
      if (interval.end <= lo) break;
      out[b] += std::min(interval.end, hi) - std::max(interval.start, lo);
    }
  }
  for (double& v : out) {
    v /= width * static_cast<double>(servers);
  }
  return out;
}

ClusterSpec cluster_for_cores(const MachineProfile& machine,
                              std::size_t cores) {
  ClusterSpec spec;
  spec.machine = machine;
  spec.nodes = std::max<std::size_t>(
      1, (cores + machine.cores_per_node - 1) / machine.cores_per_node);
  spec.cores_used = std::max<std::size_t>(1, cores);
  return spec;
}

}  // namespace mdtask::sim
