// ThreadPool microbenchmarks: the work-stealing pool against a
// single-FIFO pool (docs/TOPOLOGY.md).
//
// An embedded SingleFifoPool reproduces the simplest design — one
// mutex, one global FIFO, notify on every post — so the comparison
// stays honest as the real ThreadPool evolves. Four scenarios, each
// timed for both pools at kWorkers workers:
//
//  * pool_contended — many external threads posting TRIVIAL jobs at
//    once: pure per-job overhead under submission pressure. The FIFO
//    pool serializes every post AND every pop through one mutex while
//    the stealing pool amortizes one overflow lock over a 16-job batch
//    grab; with 16 workers and 8 posters on a few cores the outcome
//    swings with OS scheduling, so this cell is a loose canary.
//  * pool_chained — workers re-posting follow-up jobs to themselves:
//    the LIFO self-post fast path against a global-queue round trip.
//  * pool_burst — one producer, deep backlog, wait_idle: drain
//    throughput.
//  * pool_tile — contended submission of ~2us jobs, the granularity of
//    a real kernel tile: at realistic job sizes pool overhead must be
//    noise for both designs on ANY host. This is the gated cell.
//
// --json [--quick] [--out=PATH] writes BENCH_pool.json for
// scripts/check_bench_regression.py. Absolute times are machine-
// dependent ("pool" is a behavioural family, exempt from the
// cross-machine ns gate); the gated figures are same-run policy
// ratios, e.g. --min-speedup pool_tile=0.85:single_fifo/work_stealing
// (overhead parity at tile granularity) plus canary floors on the
// micro scenarios to catch gross stealing-layer regressions.
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mdtask/common/thread_pool.h"
#include "mdtask/common/timer.h"

namespace {

using namespace mdtask;

constexpr std::size_t kWorkers = 16;

/// The seed's pool design, kept verbatim-in-spirit: a single mutex
/// guarding one global FIFO, condition-variable wakeups on every post.
class SingleFifoPool {
 public:
  explicit SingleFifoPool(std::size_t threads) {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~SingleFifoPool() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void post(std::function<void()> job) {
    {
      std::lock_guard lk(mu_);
      queue_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

  void wait_idle() {
    std::unique_lock lk(mu_);
    idle_cv_.wait(lk, [this] { return queue_.empty() && active_ == 0; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        if (stop_ && queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
      }
      job();
      {
        std::lock_guard lk(mu_);
        --active_;
        if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Contended external submission: `posters` threads each post
/// `jobs_each` trivial jobs, then the pool drains. Returns total jobs.
template <typename Pool>
double bench_contended(Pool& pool, std::size_t posters,
                       std::size_t jobs_each) {
  std::atomic<std::size_t> ran{0};
  std::vector<std::thread> threads;
  threads.reserve(posters);
  for (std::size_t p = 0; p < posters; ++p) {
    threads.emplace_back([&pool, &ran, jobs_each] {
      for (std::size_t j = 0; j < jobs_each; ++j) {
        pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& t : threads) t.join();
  pool.wait_idle();
  return static_cast<double>(ran.load());
}

/// Worker-side chaining: `chains` roots each re-post `depth` follow-ups
/// from inside the pool (the self-post fast path).
template <typename Pool>
double bench_chained(Pool& pool, std::size_t chains, std::size_t depth) {
  std::atomic<std::size_t> ran{0};
  std::function<void(std::size_t)> link = [&](std::size_t remaining) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (remaining > 0) {
      pool.post([&link, remaining] { link(remaining - 1); });
    }
  };
  for (std::size_t c = 0; c < chains; ++c) {
    pool.post([&link, depth] { link(depth); });
  }
  pool.wait_idle();
  return static_cast<double>(ran.load());
}

/// Single-producer burst: one thread enqueues the whole backlog, the
/// pool drains it.
template <typename Pool>
double bench_burst(Pool& pool, std::size_t jobs) {
  std::atomic<std::size_t> ran{0};
  for (std::size_t j = 0; j < jobs; ++j) {
    pool.post([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  return static_cast<double>(ran.load());
}

/// A few microseconds of real arithmetic — the granularity of an actual
/// kernel tile (a kFrameTile x kFrameTile RMSD tile runs far longer).
/// At this job size pool overhead must be noise for BOTH designs.
double tile_work(std::size_t iters) {
  double acc = 1.0;
  for (std::size_t i = 0; i < iters; ++i) {
    acc = acc * 1.0000001 + 1e-9;
  }
  return acc;
}

/// Contended submission of tile-sized jobs: the realistic regime.
template <typename Pool>
double bench_tiles(Pool& pool, std::size_t posters, std::size_t jobs_each,
                   std::size_t iters) {
  std::atomic<std::size_t> ran{0};
  std::vector<std::thread> threads;
  threads.reserve(posters);
  for (std::size_t p = 0; p < posters; ++p) {
    threads.emplace_back([&pool, &ran, jobs_each, iters] {
      for (std::size_t j = 0; j < jobs_each; ++j) {
        pool.post([&ran, iters] {
          volatile double sink = tile_work(iters);
          (void)sink;
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : threads) t.join();
  pool.wait_idle();
  return static_cast<double>(ran.load());
}

struct JsonEntry {
  std::string kernel;
  std::string policy;
  std::string unit;
  double ns_per_unit = 0.0;
};

/// Median ns-per-job of `repeats` timed runs of `body` (body returns
/// the job count of one run). A fresh pool per run: startup/teardown is
/// outside the timer, queue state never leaks between runs.
template <typename MakePool, typename Body>
double median_ns_per_job(int repeats, MakePool make_pool, Body body) {
  std::vector<double> ns;
  ns.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    auto pool = make_pool();
    WallTimer timer;
    const double jobs = body(*pool);
    ns.push_back(timer.seconds() * 1e9 / jobs);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

std::vector<JsonEntry> run_json_suite(bool quick) {
  const int repeats = quick ? 5 : 9;
  const std::size_t posters = 8;
  const std::size_t jobs_each = quick ? 2000 : 6000;
  const std::size_t chains = kWorkers;
  const std::size_t depth = quick ? 1000 : 4000;
  const std::size_t burst = quick ? 20000 : 60000;

  const auto fifo = [] {
    return std::make_unique<SingleFifoPool>(kWorkers);
  };
  const auto stealing = [] { return std::make_unique<ThreadPool>(kWorkers); };

  std::vector<JsonEntry> entries;
  const auto add = [&entries](const char* kernel, const char* policy,
                              double ns) {
    entries.push_back({kernel, policy, "job", ns});
  };

  add("pool_contended", "single_fifo",
      median_ns_per_job(repeats, fifo, [&](SingleFifoPool& p) {
        return bench_contended(p, posters, jobs_each);
      }));
  add("pool_contended", "work_stealing",
      median_ns_per_job(repeats, stealing, [&](ThreadPool& p) {
        return bench_contended(p, posters, jobs_each);
      }));

  add("pool_chained", "single_fifo",
      median_ns_per_job(repeats, fifo, [&](SingleFifoPool& p) {
        return bench_chained(p, chains, depth);
      }));
  add("pool_chained", "work_stealing",
      median_ns_per_job(repeats, stealing, [&](ThreadPool& p) {
        return bench_chained(p, chains, depth);
      }));

  add("pool_burst", "single_fifo",
      median_ns_per_job(repeats, fifo, [&](SingleFifoPool& p) {
        return bench_burst(p, burst);
      }));
  add("pool_burst", "work_stealing",
      median_ns_per_job(repeats, stealing, [&](ThreadPool& p) {
        return bench_burst(p, burst);
      }));

  const std::size_t tile_jobs = quick ? 400 : 1200;
  const std::size_t tile_iters = 2000;  // ~2 microseconds of work
  add("pool_tile", "single_fifo",
      median_ns_per_job(repeats, fifo, [&](SingleFifoPool& p) {
        return bench_tiles(p, posters, tile_jobs, tile_iters);
      }));
  add("pool_tile", "work_stealing",
      median_ns_per_job(repeats, stealing, [&](ThreadPool& p) {
        return bench_tiles(p, posters, tile_jobs, tile_iters);
      }));

  return entries;
}

void write_json(const std::vector<JsonEntry>& entries,
                const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"mdtask-bench-pool-v1\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    out << "    {\"kernel\": \"" << e.kernel << "\", \"policy\": \""
        << e.policy << "\", \"unit\": \"" << e.unit
        << "\", \"ns_per_unit\": " << e.ns_per_unit << "}"
        << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false, quick = false;
  std::string out_path = "BENCH_pool.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::cerr << "usage: bench_pool [--json] [--quick] [--out=PATH]\n";
      return 1;
    }
  }
  const auto entries = run_json_suite(quick);
  if (json) write_json(entries, out_path);
  std::cout << "scenario        policy         ns/job\n";
  for (const auto& e : entries) {
    std::cout << e.kernel << std::string(16 - e.kernel.size(), ' ')
              << e.policy << std::string(15 - e.policy.size(), ' ')
              << e.ns_per_unit << "\n";
  }
  for (std::size_t i = 0; i + 1 < entries.size(); i += 2) {
    std::cout << entries[i].kernel << " speedup: "
              << entries[i].ns_per_unit / entries[i + 1].ns_per_unit
              << "x\n";
  }
  if (json) std::cout << "wrote " << out_path << "\n";
  return 0;
}
