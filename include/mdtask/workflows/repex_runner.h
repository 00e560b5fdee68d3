// The one-config RepEx entry point the workflow layer exposes: a
// Runner bound to a RepexConfig that runs the same replica-exchange
// rounds live on any of the four engines (run) or in virtual time
// against the DES twin (simulate). Thin by design — all engine logic
// lives in repex/runner.cpp, all cost modelling in repex/sim_repex.cpp;
// this header is the seam bench_repex, bench_tab3_decision and the
// tests share.
#pragma once

#include "mdtask/repex/runner.h"
#include "mdtask/repex/sim_repex.h"
#include "mdtask/workflows/common.h"

namespace mdtask::repex {

/// One RepEx workflow behind one config: construct with the full
/// RepexConfig (science params + engine/infrastructure knobs), then run
/// on any engine. The config's pointer members (tracer, fault plan,
/// recovery log) are borrowed and must outlive the Runner's calls.
class Runner {
 public:
  explicit Runner(RepexConfig config) : config_(std::move(config)) {}

  /// Live run on `engine` (see repex/runner.h).
  RepexResult run(workflows::EngineKind engine) const {
    return run_repex(engine, config_);
  }

  /// Virtual-time replay on `engine`'s cost model. `log` overrides the
  /// config's recovery log so live and DES streams can be captured into
  /// separate logs for comparison; nullptr records nowhere.
  SimRepexOutcome simulate(workflows::EngineKind engine,
                           fault::RecoveryLog* log = nullptr) const {
    return simulate_repex_wave(config_, engine, log);
  }

  const RepexConfig& config() const noexcept { return config_; }
  RepexConfig& config() noexcept { return config_; }

 private:
  RepexConfig config_;
};

}  // namespace mdtask::repex
