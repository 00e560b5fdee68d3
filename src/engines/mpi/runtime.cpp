#include "mdtask/engines/mpi/runtime.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "mdtask/fault/injector.h"

namespace mdtask::mpi {
namespace detail {

/// Shared communicator state: one mailbox per destination rank plus a
/// generation-counted barrier.
class World {
 public:
  explicit World(int size) : mailboxes_(static_cast<std::size_t>(size)) {}

  void deliver(int source, int dest, int tag,
               std::vector<std::uint8_t> data) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dest)];
    {
      std::lock_guard lk(box.mu);
      box.messages.push_back({source, tag, std::move(data)});
    }
    box.cv.notify_all();
  }

  std::vector<std::uint8_t> collect(int dest, int source, int tag) {
    Mailbox& box = mailboxes_[static_cast<std::size_t>(dest)];
    std::unique_lock lk(box.mu);
    for (;;) {
      for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
        if (it->source == source && it->tag == tag) {
          auto data = std::move(it->data);
          box.messages.erase(it);
          return data;
        }
      }
      box.cv.wait(lk);
    }
  }

  void barrier(int size) {
    std::unique_lock lk(barrier_mu_);
    const std::uint64_t my_generation = barrier_generation_;
    if (++barrier_count_ == size) {
      barrier_count_ = 0;
      ++barrier_generation_;
      barrier_cv_.notify_all();
      return;
    }
    barrier_cv_.wait(lk, [this, my_generation] {
      return barrier_generation_ != my_generation;
    });
  }

 private:
  struct Message {
    int source;
    int tag;
    std::vector<std::uint8_t> data;
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> messages;
  };

  std::vector<Mailbox> mailboxes_;
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;
};

}  // namespace detail

void Communicator::send_bytes(int dest, int tag,
                              std::vector<std::uint8_t> data) {
  stats_.messages_sent += 1;
  stats_.bytes_sent += data.size();
  world_->deliver(rank_, dest, tag, std::move(data));
}

std::vector<std::uint8_t> Communicator::recv_bytes(int source, int tag) {
  auto data = world_->collect(rank_, source, tag);
  stats_.messages_received += 1;
  stats_.bytes_received += data.size();
  return data;
}

void Communicator::barrier() { world_->barrier(size_); }

/// Friend of Communicator: constructs the per-rank handles.
struct SpmdRunner {
  static SpmdReport run(int ranks,
                        const std::function<void(Communicator&)>& body,
                        BcastAlgorithm bcast, trace::Tracer* tracer) {
    detail::World world(ranks);
    std::vector<Communicator> comms;
    comms.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      comms.push_back(Communicator(&world, r, ranks, bcast));
    }
    if (tracer != nullptr) {
      // Rank tracks are assigned before any thread launches, so their
      // tid order is deterministic regardless of thread scheduling.
      const std::uint32_t pid = tracer->process("mpi");
      for (int r = 0; r < ranks; ++r) {
        auto& comm = comms[static_cast<std::size_t>(r)];
        comm.tracer_ = tracer;
        comm.track_ = tracer->thread(pid, "rank-" + std::to_string(r));
      }
    }

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(ranks));
    std::exception_ptr first_error;
    std::mutex error_mu;
    for (int r = 0; r < ranks; ++r) {
      threads.emplace_back([&, r] {
        auto& comm = comms[static_cast<std::size_t>(r)];
        // RAII: the rank span closes even when the body throws, so a
        // failed rank can never leave an open span behind.
        trace::Span rank_span;
        if (comm.tracer_ != nullptr) {
          rank_span = comm.tracer_->span(comm.track_, "rank", "rank");
          rank_span.arg_num("rank", r);
        }
        try {
          body(comm);
        } catch (...) {
          std::lock_guard lk(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    if (first_error) std::rethrow_exception(first_error);

    SpmdReport report;
    report.rank_stats.reserve(comms.size());
    for (const auto& c : comms) {
      report.rank_stats.push_back(c.stats());
      report.total.merge(c.stats());
    }
    return report;
  }
};

SpmdReport run_spmd(int ranks, const std::function<void(Communicator&)>& body,
                    BcastAlgorithm bcast, trace::Tracer* tracer) {
  if (ranks <= 0) {
    throw std::invalid_argument("run_spmd: ranks must be positive");
  }
  return SpmdRunner::run(ranks, body, bcast, tracer);
}

namespace {

bool is_fail_stop(fault::FaultKind kind) noexcept {
  return kind == fault::FaultKind::kNodeCrash ||
         kind == fault::FaultKind::kWorkerOomKill ||
         kind == fault::FaultKind::kNetworkPartition;
}

}  // namespace

SpmdReport run_spmd_with_recovery(int ranks, const RecoverableSpmdBody& body,
                                  const fault::FaultPlan& plan,
                                  fault::RecoveryLog* recovery_log,
                                  BcastAlgorithm bcast,
                                  trace::Tracer* tracer,
                                  const fault::CheckpointCostModel* checkpoint_costs) {
  if (ranks <= 0) {
    throw std::invalid_argument(
        "run_spmd_with_recovery: ranks must be positive");
  }
  fault::CheckpointStore checkpoints;
  if (checkpoint_costs != nullptr) {
    checkpoints.set_cost_model(*checkpoint_costs);
  }
  const fault::FaultInjector injector(plan, fault::EngineId::kMpi);
  // The lowest doomed rank of an attempt, or {-1, kNone}. Pure function
  // of (plan, attempt): every rank computes the identical answer.
  const auto first_fault =
      [&](int attempt) -> std::pair<int, fault::FaultKind> {
    for (int r = 0; r < ranks; ++r) {
      const fault::FaultSpec spec =
          injector.decide(static_cast<std::uint64_t>(r), attempt);
      if (is_fail_stop(spec.kind)) return {r, spec.kind};
    }
    return {-1, fault::FaultKind::kNone};
  };
  for (int attempt = 0;; ++attempt) {
    try {
      SpmdReport report = run_spmd(
          ranks,
          [&, attempt](Communicator& comm) {
            const auto [doomed, kind] = first_fault(attempt);
            if (doomed >= 0) {
              // MPI_Abort semantics: the faulty rank dies, everyone
              // else bails out before the first collective.
              if (comm.rank() == doomed) {
                throw fault::InjectedFault(
                    kind, static_cast<std::uint64_t>(doomed), attempt);
              }
              return;
            }
            const fault::FaultSpec spec = injector.decide(
                static_cast<std::uint64_t>(comm.rank()), attempt);
            if ((spec.kind == fault::FaultKind::kStraggler ||
                 spec.kind == fault::FaultKind::kFilesystemStall) &&
                spec.delay_s > 0.0) {
              std::this_thread::sleep_for(
                  std::chrono::duration<double>(spec.delay_s));
            }
            body(comm, checkpoints);
          },
          bcast, tracer);
      report.attempts = attempt + 1;
      report.checkpoint_bytes = checkpoints.bytes_stored();
      report.checkpoint_write_s = checkpoints.modeled_write_s();
      report.checkpoint_restore_s = checkpoints.modeled_restore_s();
      return report;
    } catch (const fault::InjectedFault& f) {
      const fault::RecoveryAction action = fault::recovery_action(
          fault::EngineId::kMpi, f.kind(), attempt, plan.retry);
      const double backoff =
          fault::backoff_for_attempt(plan.retry, attempt + 1);
      if (recovery_log != nullptr) {
        recovery_log->record({fault::EngineId::kMpi, f.task_id(), attempt,
                              f.kind(), action, backoff,
                              tracer != nullptr ? tracer->now_us() : 0.0});
      }
      if (action == fault::RecoveryAction::kGiveUp) throw;
      // Restart from the last checkpoint after the backoff; everything
      // the aborted attempt did not put() in `checkpoints` is lost.
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
    }
  }
}

}  // namespace mdtask::mpi
