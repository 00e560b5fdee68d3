#include "mdtask/kernels/policy.h"

namespace mdtask::kernels {

const char* to_string(KernelPolicy policy) noexcept {
  switch (policy) {
    case KernelPolicy::kScalar: return "scalar";
    case KernelPolicy::kVectorized: return "vectorized";
  }
  return "unknown";
}

}  // namespace mdtask::kernels
