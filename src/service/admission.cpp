#include "mdtask/service/admission.h"

#include <string>

namespace mdtask::service {

Status AdmissionController::admit(const AnalysisRequest& request) {
  if (in_flight_ >= config_.max_global_requests) {
    ++shed_requests_;
    return Error(ErrorCode::kOverloaded,
                 "admission: global request budget exhausted (" +
                     std::to_string(in_flight_) + " in flight)");
  }
  if (in_flight_bytes_ + request.input_bytes > config_.max_global_bytes) {
    ++shed_bytes_;
    return Error(ErrorCode::kOverloaded,
                 "admission: global byte budget exhausted (" +
                     std::to_string(in_flight_bytes_) + " + " +
                     std::to_string(request.input_bytes) + " > " +
                     std::to_string(config_.max_global_bytes) + ")");
  }
  std::size_t& tenant_count = per_tenant_[request.tenant];
  if (tenant_count >= config_.max_tenant_requests) {
    ++shed_tenant_;
    return Error(ErrorCode::kOverloaded,
                 "admission: tenant " + std::to_string(request.tenant) +
                     " budget exhausted (" + std::to_string(tenant_count) +
                     " in flight)");
  }
  ++tenant_count;
  ++in_flight_;
  in_flight_bytes_ += request.input_bytes;
  ++admitted_;
  return Status::success();
}

void AdmissionController::release(const AnalysisRequest& request) {
  if (in_flight_ > 0) --in_flight_;
  in_flight_bytes_ -= request.input_bytes <= in_flight_bytes_
                          ? request.input_bytes
                          : in_flight_bytes_;
  const auto it = per_tenant_.find(request.tenant);
  if (it != per_tenant_.end()) {
    if (it->second > 1) {
      --it->second;
    } else {
      per_tenant_.erase(it);
    }
  }
}

AdmissionController::Stats AdmissionController::stats() const {
  Stats out;
  out.admitted = admitted_;
  out.shed_requests = shed_requests_;
  out.shed_bytes = shed_bytes_;
  out.shed_tenant = shed_tenant_;
  out.in_flight = in_flight_;
  out.in_flight_bytes = in_flight_bytes_;
  return out;
}

}  // namespace mdtask::service
