// Admission control for the serving front end: bounded queues and load
// shedding. A request is either admitted — reserving one slot of the
// global request budget, its input_bytes of the global byte budget and
// one slot of its tenant's budget — or shed immediately with a typed
// kOverloaded error. Shedding at the door keeps an overloaded service
// in the region where admitted requests still meet their latency
// targets, instead of queueing everything and missing every target
// (the classic load-shedding argument).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "mdtask/common/error.h"
#include "mdtask/service/request.h"

namespace mdtask::service {

struct AdmissionConfig {
  /// Requests admitted but not yet completed, across all tenants.
  std::size_t max_global_requests = 256;
  /// Sum of admitted requests' input_bytes.
  std::uint64_t max_global_bytes = 1ull << 30;
  /// Admitted-but-incomplete requests per tenant: one greedy tenant
  /// cannot consume the global budget alone.
  std::size_t max_tenant_requests = 64;
};

/// Admission ledger. admit() reserves, release() returns the
/// reservation when the request completes (or is rejected further down
/// the line). Counters are cumulative since construction.
/// Not thread-safe: ServicePipeline is its one caller, and the live
/// AnalysisService makes every pipeline call under its own mutex.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config) : config_(config) {}

  /// Admits `request` or sheds it with ErrorCode::kOverloaded (the
  /// message names the exhausted budget). An admitted request MUST be
  /// released exactly once.
  Status admit(const AnalysisRequest& request);

  /// Returns the reservation taken by admit().
  void release(const AnalysisRequest& request);

  struct Stats {
    std::uint64_t admitted = 0;      ///< cumulative successful admits
    std::uint64_t shed_requests = 0; ///< global request budget hits
    std::uint64_t shed_bytes = 0;    ///< global byte budget hits
    std::uint64_t shed_tenant = 0;   ///< per-tenant budget hits
    std::size_t in_flight = 0;       ///< admitted, not yet released
    std::uint64_t in_flight_bytes = 0;

    std::uint64_t shed_total() const noexcept {
      return shed_requests + shed_bytes + shed_tenant;
    }
  };

  Stats stats() const;

  const AdmissionConfig& config() const noexcept { return config_; }

 private:
  AdmissionConfig config_;
  std::size_t in_flight_ = 0;
  std::uint64_t in_flight_bytes_ = 0;
  std::unordered_map<std::uint64_t, std::size_t> per_tenant_;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_requests_ = 0;
  std::uint64_t shed_bytes_ = 0;
  std::uint64_t shed_tenant_ = 0;
};

}  // namespace mdtask::service
