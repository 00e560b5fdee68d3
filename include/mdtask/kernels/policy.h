// Kernel implementation tiers for the hot analysis kernels.
//
// The distance kernels in mdtask::kernels (frame sum-of-squares,
// Hausdorff, 2D-RMSD) ship two implementations:
//  * kScalar     — one double accumulator per frame pair in the seed's
//                  per-atom order (a kernel that computes several pairs
//                  at once puts one pair in each SIMD lane): exact, with
//                  the seed's values and evaluation counts. The default.
//  * kVectorized — cache-blocked SoA traversal with multi-accumulator
//                  (SIMD-lane) inner loops the compiler vectorizes;
//                  squared differences are accumulated in single
//                  precision and drained into doubles periodically, so
//                  distance values may differ from kScalar by ~1e-6
//                  relative (the equivalence tests pin the bound).
//
// Predicate kernels (the Leaflet Finder cutoff scans and the BallTree
// leaf scan) have one production path: a single-precision pre-filter
// whose survivors are confirmed with the exact double per-pair
// expression, so their output equals the scalar reference scan. Where
// they take a policy argument, it has no effect.
#pragma once

#include <cstddef>

namespace mdtask::kernels {

enum class KernelPolicy { kScalar = 0, kVectorized = 1 };

/// Number of policies.
inline constexpr std::size_t kPolicyCount = 2;

/// All policies in enum order (for sweeps in tests and benches).
inline constexpr KernelPolicy kAllPolicies[kPolicyCount] = {
    KernelPolicy::kScalar, KernelPolicy::kVectorized};

const char* to_string(KernelPolicy policy) noexcept;

/// The default tier: kScalar, exact and bit-identical to the seed.
constexpr KernelPolicy default_policy() noexcept {
  return KernelPolicy::kScalar;
}

}  // namespace mdtask::kernels
