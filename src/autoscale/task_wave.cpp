#include "mdtask/autoscale/task_wave.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "mdtask/fault/injector.h"
#include "mdtask/sim/simulation.h"

namespace mdtask::autoscale {
namespace {

using fault::FaultKind;
using HoldId = sim::Resource::HoldId;

/// One task of the wave.
struct Task {
  int attempt = 0;
  bool finished = false;
  double first_start = -1.0;  ///< earliest dispatch seen (latency epoch)
  /// Holds racing to complete the current attempt: the original first,
  /// then the controller's backup. First completion wins. Empty once
  /// the task finished, and for failing attempts and the plan's
  /// fixed-threshold copies, which the controller does not back up.
  std::vector<HoldId> copies;
};

}  // namespace

TaskWaveOutcome simulate_task_wave(
    std::size_t cores, const std::vector<double>& durations,
    const fault::FaultPlan& plan, fault::EngineId engine,
    fault::RecoveryLog* log, const fault::MembershipPlan* membership,
    std::vector<PoolSample>* pool_timeline,
    const AdaptiveConfig& controller) {
  TaskWaveOutcome outcome;
  cores = std::max<std::size_t>(1, cores);
  const std::size_t n_tasks = durations.size();
  sim::Simulation simulation;
  sim::Resource pool(simulation, cores);
  const fault::FaultInjector injector(plan, engine);

  std::vector<Task> tasks(n_tasks);
  std::vector<double> latencies(n_tasks, 0.0);
  std::uint64_t finished = 0;
  std::uint64_t given_up = 0;
  double last_done = 0.0;
  MetricsWindow window;
  outcome.peak_pool = cores;

  // Acquires `work` seconds of service; `on_done` gets the hold's own
  // handle when it completes.
  const auto hold = [&pool](double work,
                            std::function<void(HoldId)> on_done) {
    auto self = std::make_shared<HoldId>();
    *self = pool.acquire(work, [self, on_done = std::move(on_done)] {
      on_done(*self);
    });
    return *self;
  };
  const auto note_start = [&pool](Task& t, HoldId id) {
    const auto at = pool.running(id);
    if (at && (t.first_start < 0.0 || at->start_s < t.first_start)) {
      t.first_start = at->start_s;
    }
  };

  // A hold that completes its task. Later holds of a finished task —
  // only the plan's fixed-threshold backups, which keep their cores —
  // just extend the makespan.
  const auto complete = [&](std::uint64_t task, HoldId id) {
    last_done = simulation.now();
    Task& t = tasks[task];
    if (t.finished) return;
    note_start(t, id);
    for (const HoldId copy : t.copies) note_start(t, copy);
    t.finished = true;
    ++finished;
    const double latency = simulation.now() - t.first_start;
    latencies[task] = latency;
    window.record_task_duration(latency);
    // First completion wins: the other copy, running or queued, is
    // cancelled now and its server released.
    for (const HoldId copy : t.copies) {
      if (copy != id) pool.cancel(copy);
    }
    t.copies.clear();
  };
  const auto run_copy = [&](std::uint64_t task, double work) {
    return hold(work, [&complete, task](HoldId id) { complete(task, id); });
  };

  std::function<void(std::uint64_t, int)> run_attempt =
      [&](std::uint64_t task, int attempt) {
        Task& t = tasks[task];
        t.attempt = attempt;
        const double nominal = durations[task];
        const fault::FaultSpec spec = injector.decide(task, attempt);
        switch (spec.kind) {
          case FaultKind::kNone:
            t.copies.push_back(run_copy(task, nominal));
            return;
          case FaultKind::kStraggler: {
            ++outcome.faults_injected;
            ++outcome.stragglers;
            const double actual = nominal * spec.factor + spec.delay_s;
            // The plan's fixed-threshold model (the seed's speculation
            // study): the original copy holds its core until the winner
            // finishes; the backup launches at the detection threshold
            // and needs one nominal duration. A straggler that finishes
            // before it would be detected gets no backup.
            const double detect =
                nominal * plan.speculation.threshold_factor;
            if (!plan.speculation.enabled || detect >= actual) {
              t.copies.push_back(run_copy(task, actual));
              return;
            }
            const double completion = std::min(actual, detect + nominal);
            ++outcome.speculative_copies;
            if (log != nullptr) {
              log->record({engine, task, attempt, FaultKind::kStraggler,
                           fault::RecoveryAction::kSpeculativeCopy, 0.0,
                           simulation.now() * 1e6});
            }
            run_copy(task, completion);
            simulation.after(detect, [&run_copy, task, completion, detect] {
              run_copy(task, std::max(0.0, completion - detect));
            });
            return;
          }
          case FaultKind::kFilesystemStall:
            // A stall slows the task, it does not fail it: no recovery
            // decision, just added virtual time.
            ++outcome.faults_injected;
            t.copies.push_back(run_copy(task, nominal + spec.delay_s));
            return;
          default:
            break;
        }
        // Failing kinds. A partition fails at dispatch; crashes and OOM
        // kills burn half the attempt before the loss is noticed.
        ++outcome.faults_injected;
        const FaultKind kind = spec.kind;
        const double repair = std::max(0.0, spec.delay_s);
        const double burned =
            kind == FaultKind::kNetworkPartition ? 0.0 : 0.5 * nominal;
        hold(burned, [&, task, attempt, kind, repair](HoldId id) {
          note_start(tasks[task], id);
          const fault::RecoveryAction action =
              fault::recovery_action(engine, kind, attempt, plan.retry);
          const double backoff =
              fault::backoff_for_attempt(plan.retry, attempt + 1);
          if (log != nullptr) {
            log->record({engine, task, attempt, kind, action, backoff,
                         simulation.now() * 1e6});
          }
          if (kind == FaultKind::kNodeCrash) {
            // The node's core leaves the pool for the repair window.
            pool.remove_servers(1);
            simulation.after(repair, [&] {
              pool.add_servers(1);
              outcome.peak_pool = std::max(outcome.peak_pool, pool.servers());
            });
          }
          if (action == fault::RecoveryAction::kGiveUp) {
            ++given_up;
            if (outcome.failure.empty()) {
              outcome.failure = "task " + std::to_string(task) +
                                " failed after " +
                                std::to_string(attempt + 1) + " attempts (" +
                                fault::to_string(kind) + ")";
            }
            return;
          }
          ++outcome.retries;
          simulation.after(backoff, [&run_attempt, task, attempt] {
            run_attempt(task, attempt + 1);
          });
        });
      };

  // Controller speculation: backup-submit every running original older
  // than the threshold, in task order.
  const auto speculate = [&](double threshold_s) {
    std::size_t submitted = 0;
    const double now = simulation.now();
    for (std::uint64_t task = 0; task < n_tasks; ++task) {
      Task& t = tasks[task];
      if (t.copies.size() != 1) continue;  // finished or backed up already
      const auto at = pool.running(t.copies.front());
      if (!at) continue;  // still queued
      if (now - at->start_s <= threshold_s) continue;
      ++submitted;
      ++outcome.speculative_copies;
      if (log != nullptr) {
        log->record({engine, task, t.attempt, FaultKind::kStraggler,
                     fault::RecoveryAction::kSpeculativeCopy, 0.0,
                     now * 1e6});
      }
      t.copies.push_back(run_copy(task, durations[task]));
    }
    return submitted;
  };

  // The simulated pool as membership events and the controller see it,
  // one set of actions per departure policy.
  const auto pool_actions = [&](fault::DeparturePolicy policy) {
    const fault::DeparturePolicy departure =
        fault::departure_for(engine, policy);
    EngineActions actions;
    actions.engine = engine;
    // Rigid baseline: a static MPI world cannot absorb new ranks
    // mid-run, and the controller only records vetoes against it.
    actions.rigid = engine == fault::EngineId::kMpi;
    if (!actions.rigid) {
      actions.grow = [&](std::size_t count) {
        pool.add_servers(count);
        outcome.peak_pool = std::max(outcome.peak_pool, pool.servers());
        return count;
      };
    }
    actions.shrink = [&, departure](std::size_t count) {
      const std::size_t before = pool.servers();
      count = std::min(count, before > 1 ? before - 1 : 0);  // never empty
      if (departure == fault::DeparturePolicy::kKill) {
        // Spark loses the running tasks of a decommissioned executor
        // (lineage recomputes them); rigid MPI loses them to a
        // checkpoint-restart. Either way the preempted holds restart
        // from scratch.
        outcome.preempted += pool.kill_servers(count);
      } else {
        pool.remove_servers(count);
      }
      return before - pool.servers();
    };
    actions.speculate = speculate;
    actions.pool_size = [&pool] { return pool.servers(); };
    return actions;
  };

  for (std::uint64_t task = 0; task < n_tasks; ++task) {
    run_attempt(task, 0);
  }

  const auto sample_pool = [&] {
    if (pool_timeline != nullptr) {
      pool_timeline->push_back({simulation.now(), pool.servers()});
    }
  };
  sample_pool();

  // Membership: one simulation event per schedule entry, scheduled
  // after the task wave so that at equal timestamps a membership event
  // fires before same-time task completions scheduled later.
  const EngineActions membership_actions = pool_actions(
      membership != nullptr ? membership->departure
                            : fault::DeparturePolicy::kEngineDefault);
  const auto record_membership = [&](fault::MembershipKind kind,
                                     std::size_t seq, std::size_t count,
                                     std::size_t preempted) {
    if (log != nullptr) {
      log->record_membership({engine, kind, seq, count, pool.servers(),
                              preempted, simulation.now() * 1e6});
    }
    sample_pool();
  };
  if (membership != nullptr) {
    for (std::size_t i = 0; i < membership->schedule.size(); ++i) {
      const fault::MembershipEvent ev = membership->schedule[i];
      simulation.after(ev.at_s, [&, ev, i] {
        if (ev.kind == fault::MembershipKind::kNodeJoin) {
          ++outcome.joins;
          const auto join = [&, ev, i] {
            if (membership_actions.grow) membership_actions.grow(ev.count);
            record_membership(ev.kind, i, ev.count, 0);
          };
          if (membership->join_warmup_s > 0.0) {
            simulation.after(membership->join_warmup_s, join);
          } else {
            join();
          }
          return;
        }
        ++outcome.leaves;
        const std::uint64_t preempted_before = outcome.preempted;
        membership_actions.shrink(ev.count);
        record_membership(ev.kind, i, ev.count,
                          outcome.preempted - preempted_before);
      });
    }
  }

  // The controller ticks on a fixed virtual-time cadence until every
  // task has finished or given up.
  std::optional<AutoscaleController> control;
  if (controller.enabled) {
    control.emplace(controller,
                    pool_actions(fault::DeparturePolicy::kEngineDefault),
                    &window, log);
  }
  const double tick_s = std::max(controller.tick_interval_s, 1e-6);
  std::function<void()> tick = [&] {
    if (finished + given_up >= n_tasks) return;
    ++outcome.ticks;
    window.observe_pool(pool.servers(), pool.busy(), pool.queued());
    const TickResult result = control->tick(simulation.now());
    if (result.vetoed) {
      ++outcome.rigid_vetoes;
    } else if (result.applied > 0) {
      if (result.decision.kind == Decision::Kind::kScaleUp) {
        ++outcome.scale_ups;
      } else {
        ++outcome.scale_downs;
      }
      sample_pool();
    }
    simulation.after(tick_s, tick);
  };
  if (control) simulation.after(tick_s, tick);

  simulation.run();

  outcome.completed = finished == n_tasks;
  outcome.makespan_s = last_done;
  outcome.final_pool = pool.servers();
  outcome.p50_task_s = duration_percentile(latencies, 50.0);
  outcome.p95_task_s = duration_percentile(latencies, 95.0);
  outcome.p99_task_s = duration_percentile(latencies, 99.0);
  return outcome;
}

}  // namespace mdtask::autoscale
