#include "mdtask/service/fair_share.h"

#include <algorithm>

namespace mdtask::service {

void FairShareScheduler::push(AnalysisRequest request) {
  const auto c = static_cast<std::size_t>(request.tenant_class);
  ClassQueue& q = classes_[c < kTenantClasses ? c : kTenantClasses - 1];
  auto [it, inserted] = q.by_tenant.try_emplace(request.tenant);
  if (inserted || it->second.empty()) q.tenant_order.push_back(request.tenant);
  it->second.push_back(std::move(request));
  ++q.size;
}

AnalysisRequest FairShareScheduler::pop_class(ClassQueue& q) {
  const std::uint64_t tenant = q.tenant_order.front();
  q.tenant_order.pop_front();
  std::deque<AnalysisRequest>& fifo = q.by_tenant[tenant];
  AnalysisRequest request = std::move(fifo.front());
  fifo.pop_front();
  if (fifo.empty()) {
    q.by_tenant.erase(tenant);
  } else {
    q.tenant_order.push_back(tenant);  // round-robin: to the back
  }
  --q.size;
  return request;
}

bool FairShareScheduler::pop(AnalysisRequest* out) {
  std::size_t total = 0;
  for (const ClassQueue& q : classes_) total += q.size;
  if (total == 0) return false;

  for (;;) {
    ClassQueue& q = classes_[cursor_];
    if (q.size == 0) {
      // Empty queues carry no credit into their next busy period.
      q.deficit = 0;
      cursor_ = (cursor_ + 1) % kTenantClasses;
      visit_pending_ = true;
      continue;
    }
    if (visit_pending_) {
      const std::uint64_t credit =
          config_.quantum_bytes * config_.weights[cursor_];
      q.deficit += std::max<std::uint64_t>(1, credit);
      visit_pending_ = false;
    }
    const std::deque<AnalysisRequest>& head_fifo =
        q.by_tenant.at(q.tenant_order.front());
    const std::uint64_t head_cost = cost(head_fifo.front());
    if (q.deficit >= head_cost) {
      q.deficit -= head_cost;
      *out = pop_class(q);
      if (q.size == 0) q.deficit = 0;
      return true;
    }
    cursor_ = (cursor_ + 1) % kTenantClasses;
    visit_pending_ = true;
  }
}

std::size_t FairShareScheduler::queued() const {
  std::size_t total = 0;
  for (const ClassQueue& q : classes_) total += q.size;
  return total;
}

std::size_t FairShareScheduler::queued(TenantClass tenant_class) const {
  const auto c = static_cast<std::size_t>(tenant_class);
  return c < kTenantClasses ? classes_[c].size : 0;
}

}  // namespace mdtask::service
