// Shared helpers for the figure-reproduction bench binaries.
//
// Every bench prints the rows/series of one paper figure or table and
// writes the same rows as CSV under ./bench_results/. Simulated cells
// use the host-calibrated kernel costs rescaled to the paper's Python
// pipelines (perf::python_pipeline_costs); absolute values therefore
// differ from the paper's testbed, but the shapes — who wins, by what
// factor, where the crossovers fall — are the reproduction target
// (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "mdtask/common/table.h"
#include "mdtask/sim/simulation.h"

namespace mdtask::bench {

/// Parses `--seed N` (default 42, the canonical fault-plan seed). The
/// seed feeds every fault plan / straggler stream the bench replays;
/// the default reproduces the published CSVs. Print it with
/// `print_seed` so runs are attributable without perturbing the CSV
/// rows (table titles flow into the CSV, stdout headers do not).
inline std::uint64_t parse_seed(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return 42;
}

inline void print_seed(std::uint64_t seed) {
  std::printf("(seed: %llu)\n", static_cast<unsigned long long>(seed));
}

/// Parses `--churn N` (default 0 = no membership events, which keeps
/// the published CSVs byte-identical). N > 0 adds N seeded node-join
/// and N seeded node-leave events to the elasticity tables, drawn from
/// the same `--seed` the fault plans use.
inline std::size_t parse_churn(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--churn") == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return 0;
}

/// Parses `--adaptive` (default off, which keeps the published CSVs
/// byte-identical). When set, the elasticity benches add closed-loop
/// tables driven by the mdtask::autoscale policies: adaptive-vs-static
/// DES replays.
inline bool parse_adaptive(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--adaptive") == 0) return true;
  }
  return false;
}

/// Parses `--stream` (default off, which keeps the published CSVs
/// byte-identical). When set, the figure benches append streamed-I/O
/// addenda: the same task waves replayed over the machine's
/// FileSystemModel with out-of-core shard reads, without and with
/// double-buffered prefetch (docs/STREAMING.md).
inline bool parse_stream(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stream") == 0) return true;
  }
  return false;
}

/// Parses `--shard-frames N` (default 32): frames per shard for the
/// `--stream` addenda. 32 frames of the 131k-atom membrane is ~50 MB,
/// which puts one shard read at ~0.4 of a task's read+compute on the
/// calibrated costs — squarely inside the I/O-straggler regime where
/// double-buffered prefetch overlap pays most.
inline std::size_t parse_shard_frames(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--shard-frames") == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return 32;
}

/// Paper-style Wrangler allocation: 32 cores/node (figure labels
/// "32/1 64/2 128/4 256/8" and "16/1 64/2 256/8" imply 32 used cores
/// per hyper-threaded node).
inline sim::ClusterSpec wrangler_alloc(std::size_t cores) {
  return sim::ClusterSpec{sim::wrangler(),
                          std::max<std::size_t>(1, cores / 32), cores};
}

/// Paper-style Comet allocation: 16 cores/node ("16/1 64/4 256/16").
inline sim::ClusterSpec comet_alloc(std::size_t cores) {
  return sim::ClusterSpec{sim::comet(),
                          std::max<std::size_t>(1, cores / 16), cores};
}

/// Prints the table and writes it to ./bench_results/<stem>.csv.
inline void emit(const Table& table, const std::string& stem) {
  std::printf("%s\n", table.render().c_str());
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  const std::string path = "bench_results/" + stem + ".csv";
  if (auto status = table.write_csv(path); !status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.error().to_string().c_str());
  } else {
    std::printf("(csv: %s)\n\n", path.c_str());
  }
}

inline std::string fmt_runtime(double seconds) {
  return Table::fmt(seconds, seconds < 10 ? 2 : 1);
}

}  // namespace mdtask::bench
