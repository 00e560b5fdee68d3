// Weighted fair-share scheduling across tenant classes.
//
// Admitted requests queue here until the dispatcher has capacity; the
// scheduler decides WHICH queued request runs next. Two mechanisms
// compose:
//
//  * Across classes: weighted deficit round-robin (DRR). Each class
//    accumulates `quantum_bytes x weight` of byte credit per visit and
//    serves requests while its deficit covers the head request's cost
//    (max(1, input_bytes)). Over a saturated interval each class gets
//    bandwidth proportional to its weight regardless of how many
//    requests the others queue — an interactive trickle is not starved
//    by a best-effort flood.
//  * Within a class: round-robin over tenants (arrival order per
//    tenant), so one tenant's burst cannot monopolize its class.
//
// Deterministic: pop order is a pure function of the push sequence.
// Not thread-safe: ServicePipeline is its one caller, and the live
// AnalysisService makes every pipeline call under its own mutex (the DES
// drives it single-threaded).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "mdtask/service/request.h"

namespace mdtask::service {

struct FairShareConfig {
  /// DRR weight per TenantClass (index = class). Defaults give the
  /// interactive class ~8/12 of a saturated service, batch ~3/12,
  /// best-effort ~1/12.
  std::array<std::uint32_t, kTenantClasses> weights{8, 3, 1};
  /// Byte credit one weight unit earns per DRR visit. Should be at
  /// least the typical request cost, or small requests serialize.
  std::uint64_t quantum_bytes = 1ull << 20;
};

class FairShareScheduler {
 public:
  explicit FairShareScheduler(FairShareConfig config) : config_(config) {}
  FairShareScheduler() : FairShareScheduler(FairShareConfig{}) {}

  /// Enqueues an admitted request.
  void push(AnalysisRequest request);

  /// Pops the next request in DRR order into `out`; false when empty.
  bool pop(AnalysisRequest* out);

  std::size_t queued() const;
  std::size_t queued(TenantClass tenant_class) const;

  const FairShareConfig& config() const noexcept { return config_; }

 private:
  /// One class's queues: per-tenant FIFOs served round-robin.
  struct ClassQueue {
    std::deque<std::uint64_t> tenant_order;  ///< RR ring of tenants
    std::unordered_map<std::uint64_t, std::deque<AnalysisRequest>>
        by_tenant;
    std::uint64_t deficit = 0;
    std::size_t size = 0;
  };

  static std::uint64_t cost(const AnalysisRequest& request) noexcept {
    return request.input_bytes > 0 ? request.input_bytes : 1;
  }
  /// Pops the head request of the class's round-robin tenant.
  AnalysisRequest pop_class(ClassQueue& q);

  FairShareConfig config_;
  std::array<ClassQueue, kTenantClasses> classes_;
  std::size_t cursor_ = 0;       ///< class the next DRR visit starts at
  bool visit_pending_ = true;    ///< cursor class not yet credited
};

}  // namespace mdtask::service
