#include "mdtask/common/error.h"

namespace mdtask {

const char* to_string(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kInvalidArgument: return "kInvalidArgument";
    case ErrorCode::kOutOfRange: return "kOutOfRange";
    case ErrorCode::kIoError: return "kIoError";
    case ErrorCode::kFormatError: return "kFormatError";
    case ErrorCode::kResourceExhausted: return "kResourceExhausted";
    case ErrorCode::kUnavailable: return "kUnavailable";
    case ErrorCode::kOverloaded: return "kOverloaded";
    case ErrorCode::kDeadlineExceeded: return "kDeadlineExceeded";
    case ErrorCode::kCancelled: return "kCancelled";
    case ErrorCode::kInternal: return "kInternal";
  }
  return "kUnknown";
}

std::string TaskFailureContext::to_string() const {
  std::string out = " [engine=";
  out += engine;
  out += " task=";
  out += std::to_string(task_id);
  out += " attempt=";
  out += std::to_string(attempt);
  if (!fault_kind.empty()) {
    out += " fault=";
    out += fault_kind;
  }
  out += "]";
  return out;
}

std::string Error::to_string() const {
  std::string out = mdtask::to_string(code_);
  out += ": ";
  out += message_;
  if (task_.has_value()) out += task_->to_string();
  return out;
}

}  // namespace mdtask
