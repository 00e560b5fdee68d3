// Discrete-event simulation core.
//
// The paper's experiments ran on multi-node XSEDE clusters (SDSC Comet,
// TACC Wrangler) at up to 256 cores. This DES substitutes for that
// hardware: workloads are replayed in virtual time against a cluster
// specification, with per-task compute costs calibrated from the real
// C++ kernels on the host (see perf/calibration.h) and framework
// overheads from the models in perf/framework_model.h.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "mdtask/trace/tracer.h"

namespace mdtask::sim {

/// An event-driven virtual clock. Events fire in time order; ties fire in
/// schedule order (stable), which makes every simulation deterministic.
class Simulation {
 public:
  using Callback = std::function<void()>;

  double now() const noexcept { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (>= now).
  void at(double t, Callback fn);
  /// Schedules `fn` `dt` seconds from now.
  void after(double dt, Callback fn) { at(now_ + dt, std::move(fn)); }

  /// Runs until the event queue drains. Returns the final clock value.
  double run();

  /// Events executed so far (exposed for tests).
  std::uint64_t events_processed() const noexcept { return processed_; }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

/// One recorded service interval: [start, end) in virtual time.
struct ServiceInterval {
  double start = 0.0;
  double end = 0.0;
};

/// A multi-server resource (a pool of cores, or a single-server database).
/// Requests hold one server for a duration; excess requests queue FIFO.
///
/// Servers are numbered slots: the initial servers are 0..n-1, every
/// added server takes the next fresh number, and an idle request takes
/// the lowest-numbered free slot. The slot fixes a hold's trace track.
class Resource {
 public:
  /// Handle of one hold, from acquire() until the hold completes or is
  /// cancelled; a hold requeued by kill_servers keeps its handle.
  using HoldId = std::uint64_t;

  /// Where and since when a hold runs (see running()).
  struct Placement {
    double start_s = 0.0;
    std::size_t slot = 0;
  };

  Resource(Simulation& simulation, std::size_t servers);

  /// Starts recording every service interval into `out` (not owned;
  /// must outlive the simulation). Pass nullptr to stop.
  void set_trace(std::vector<ServiceInterval>* out) noexcept {
    trace_ = out;
  }

  /// Mirrors every service interval into `tracer` as a span stamped with
  /// VIRTUAL time (seconds -> microseconds), under process `pid`, one
  /// thread track per server ("<server_prefix>-<slot>"). Holds are
  /// assigned the lowest free slot, so identical simulations produce
  /// byte-identical traces. Call before the first acquire; holds
  /// already in flight emit no span. Pass nullptr to stop.
  void set_trace(trace::Tracer* tracer, std::uint32_t pid,
                 std::string server_prefix = "core",
                 std::string span_name = "task");

  /// Requests one server for `work` seconds of service; `on_complete`
  /// fires when the hold ends. May queue.
  HoldId acquire(double work, Simulation::Callback on_complete);

  /// Withdraws a hold without firing its on_complete. A queued hold
  /// leaves the queue; a running one ends now — its unserved remainder
  /// is refunded from busy_time() and its server is released as if the
  /// hold had finished (a pending removal retires it, otherwise it takes
  /// the next queued hold). Returns false for a handle that is no longer
  /// queued or running.
  bool cancel(HoldId id);

  /// The placement of a running hold, also while its own completion
  /// callback runs; nullopt while it is queued or once it has ended.
  std::optional<Placement> running(HoldId id) const;

  /// Elastic scaling (the paper's Sec.-6 future-work item: dynamically
  /// grow/shrink the resource pool). Added servers immediately start
  /// draining the queue; removals take effect lazily (drain semantics)
  /// as busy servers finish their current hold — a finishing server
  /// tagged for removal retires even when the queue is non-empty. Idle
  /// servers leave first, highest-numbered first. Removal requests
  /// beyond the current pool size are dropped: the pool never owes
  /// phantom departures, so a later add_servers() call always grows it
  /// for real.
  void add_servers(std::size_t count);
  void remove_servers(std::size_t count);

  /// Kill-style removal: idle servers leave immediately; beyond that,
  /// the most recently started holds are preempted — each restarts from
  /// scratch at the back of the queue under the same handle (the
  /// partial service is lost) and its server leaves now. Returns the
  /// number of holds preempted. A preempted hold's recorded
  /// ServiceInterval is truncated at the kill time; its tracer span
  /// (already emitted at start) keeps the planned duration.
  std::size_t kill_servers(std::size_t count);

  std::size_t free_servers() const noexcept { return free_slots_.size(); }
  std::size_t queued() const noexcept { return pending_.size(); }
  /// Holds currently on a server (including servers tagged to leave).
  std::size_t busy() const noexcept { return inflight_.size(); }
  /// Current pool size: idle plus busy servers, minus those already
  /// tagged to leave when their hold finishes.
  std::size_t servers() const noexcept {
    return free_slots_.size() + inflight_.size() + (finishing_ ? 1 : 0) -
           to_remove_;
  }
  /// Total busy time accumulated across servers (for utilization).
  double busy_time() const noexcept { return busy_time_; }

 private:
  static constexpr std::size_t kNpos = ~std::size_t{0};
  static constexpr std::uint64_t kQueued = ~std::uint64_t{0};
  /// One request, queued or on a server.
  struct Hold {
    double work = 0.0;
    Simulation::Callback on_complete;
    std::uint64_t run = kQueued;  ///< inflight_ key while running
    Placement at;
    std::size_t trace_index = kNpos;
  };
  /// The hold whose completion callback is running: its server still
  /// counts as removable and running() still answers for it.
  struct Finishing {
    HoldId id = 0;
    Placement at;
  };
  void dispatch();
  void start(HoldId id);
  void finish(std::uint64_t run);
  /// Takes a running hold off its server: refunds the unserved
  /// remainder and truncates its recorded interval at now.
  void stop(Hold& hold);
  /// Returns a server to the pool: a pending removal retires it,
  /// otherwise it serves the queue.
  void release(std::size_t slot);
  /// Retires up to `count` idle servers, highest-numbered first.
  std::size_t retire_idle(std::size_t count);
  /// The trace track of `slot`, registering tracks up to it on demand.
  trace::Track track_for(std::size_t slot);

  Simulation* simulation_;
  std::unordered_map<HoldId, Hold> holds_;  ///< every queued/running hold
  HoldId next_id_ = 0;
  std::deque<HoldId> pending_;  ///< FIFO queue
  std::uint64_t next_run_ = 0;
  std::map<std::uint64_t, HoldId> inflight_;  ///< key order = start order
  std::set<std::size_t> free_slots_;          ///< idle servers
  std::size_t next_slot_ = 0;  ///< number of the next added server
  std::size_t to_remove_ = 0;  ///< lazy removals pending
  std::optional<Finishing> finishing_;
  double busy_time_ = 0.0;
  std::vector<ServiceInterval>* trace_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t trace_pid_ = 0;
  std::string slot_prefix_ = "core";
  std::string span_name_ = "task";
  std::vector<trace::Track> slot_tracks_;  ///< index = slot
};

/// Alpha-beta network cost model plus collective algorithms.
struct NetworkModel {
  double latency_s = 1e-5;          ///< per-message alpha
  double bandwidth_Bps = 5e9;       ///< per-link beta^-1 (~40 Gbit)
  double bisection_Bps = 2e10;      ///< cluster bisection bandwidth

  double point_to_point_s(std::uint64_t bytes) const noexcept {
    return latency_s + static_cast<double>(bytes) / bandwidth_Bps;
  }
  /// Root sends the payload to each of (peers) receivers sequentially —
  /// the flat algorithm whose cost grows linearly with P (MPI in Fig. 8).
  double bcast_linear_s(std::uint64_t bytes, std::size_t peers) const {
    return static_cast<double>(peers) * point_to_point_s(bytes);
  }
  /// Binomial-tree broadcast: ceil(log2 P) rounds.
  double bcast_tree_s(std::uint64_t bytes, std::size_t ranks) const;
  /// BitTorrent-style broadcast (Spark): pipelined chunks, near-constant
  /// in P beyond the tree depth term.
  double bcast_torrent_s(std::uint64_t bytes, std::size_t ranks) const;
  /// Gather of per-source payloads at one root (sequential arrivals).
  double gather_s(std::uint64_t total_bytes, std::size_t sources) const {
    return static_cast<double>(sources) * latency_s +
           static_cast<double>(total_bytes) / bandwidth_Bps;
  }
  /// All-to-all shuffle of `total_bytes` across `ranks` participants,
  /// limited by bisection bandwidth.
  double shuffle_s(std::uint64_t total_bytes, std::size_t ranks) const {
    return static_cast<double>(ranks) * latency_s +
           static_cast<double>(total_bytes) / bisection_Bps;
  }
};

/// Shared parallel filesystem model for streamed trajectory I/O: each
/// read pays a metadata/seek latency plus transfer at the per-stream
/// sequential bandwidth; the backend saturates at aggregate_Bps, so at
/// most max_streams() reads make progress concurrently and excess
/// readers queue (the contention that produces I/O stragglers).
struct FileSystemModel {
  double seek_latency_s = 5e-4;  ///< metadata + seek per shard read
  double stream_Bps = 1.2e9;     ///< one reader's sequential bandwidth
  double aggregate_Bps = 6e9;    ///< backend saturation bandwidth

  /// Concurrent streams the backend sustains at full per-stream rate.
  std::size_t max_streams() const noexcept {
    const double streams = aggregate_Bps / stream_Bps;
    return streams < 1.0 ? 1 : static_cast<std::size_t>(streams);
  }
  /// Uncontended service time of one `bytes` read.
  double read_s(std::uint64_t bytes) const noexcept {
    return seek_latency_s + static_cast<double>(bytes) / stream_Bps;
  }
};

/// A machine family (one paper testbed).
struct MachineProfile {
  const char* name = "generic";
  std::size_t cores_per_node = 24;
  /// Compute speed relative to the calibration host (1.0 = host speed).
  double core_speed = 1.0;
  /// Wrangler's 24 cores/node are hyper-threaded (12 physical): the
  /// second thread on a core contributes only this fraction of extra
  /// throughput. Comet's 24 are physical (factor 1).
  double hyperthread_efficiency = 1.0;
  std::size_t physical_cores_per_node = 24;
  NetworkModel network;
  double filesystem_Bps = 5e9;  ///< shared parallel filesystem bandwidth
  /// Streamed-I/O view of the same filesystem (filesystem_Bps remains
  /// the aggregate the checkpoint model charges against).
  FileSystemModel filesystem;
};

/// SDSC Comet: 24 physical Haswell cores/node, 128 GB/node (Sec. 4).
MachineProfile comet();
/// TACC Wrangler: 24 hyper-threaded cores/node (12 physical), 128 GB.
MachineProfile wrangler();

/// A concrete allocation: nodes x machine.
struct ClusterSpec {
  MachineProfile machine;
  std::size_t nodes = 1;
  /// Cores actually used (0 = all cores of every node). Fig. 6 sweeps
  /// core counts below one full node.
  std::size_t cores_used = 0;

  std::size_t total_cores() const noexcept {
    return cores_used != 0 ? cores_used : nodes * machine.cores_per_node;
  }
  /// Effective throughput of the cores actually used: the physical cores
  /// of each node fill up first; extra logical (hyper-thread) cores
  /// contribute at the machine's hyperthread_efficiency.
  double total_effective_cores() const noexcept;
  /// Memory available to each task slot: 128 GB/node split across the
  /// cores actually used per node (the paper runs 32 processes/node on
  /// Wrangler, giving each ~4 GB).
  double memory_per_core_bytes() const noexcept {
    const double used_per_node =
        static_cast<double>(total_cores()) / static_cast<double>(nodes);
    return 128.0 * (1ull << 30) / used_per_node;
  }
};

/// Utilization timeline from recorded service intervals: the fraction
/// of `servers` busy in each of `buckets` equal slices of [0, horizon].
/// horizon <= 0 uses the latest interval end.
std::vector<double> utilization_timeline(
    const std::vector<ServiceInterval>& intervals, std::size_t servers,
    std::size_t buckets, double horizon = 0.0);

/// Builds a cluster with the requested total core count on a machine
/// (cores must divide into whole nodes; partial nodes are rounded up,
/// mirroring how allocations work on the real systems).
ClusterSpec cluster_for_cores(const MachineProfile& machine,
                              std::size_t cores);

}  // namespace mdtask::sim
