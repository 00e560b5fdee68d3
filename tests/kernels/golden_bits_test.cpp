// Golden bits of both kernel tiers.
//
// The packs below hold exactly representable floats built with integer
// operations only (a SplitMix64 hash, a 24-bit signed mantissa, a
// power-of-two scale), so no compiler flag can change the inputs. Their
// scales spread over 2^-8..2^-23, so frame differences carry more than
// 26 significant bits, their squares round, and a contracted (FMA)
// accumulation would change the sums. The pinned values are those of
// the two directed scans, which the one-pass naive scan must equal; a
// build whose kernels contract, reorder or regroup the kScalar or the
// kVectorized arithmetic fails here, whichever SIMD clone runs.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "mdtask/common/hash.h"
#include "mdtask/kernels/batch.h"

namespace mdtask::kernels {
namespace {

/// A pack whose every coordinate is a signed 24-bit integer hash scaled
/// by 2^-(8..23): exact in float, no floating-point arithmetic.
FramePack golden_pack(std::uint64_t seed, std::size_t frames,
                      std::size_t atoms) {
  FramePack pack(frames, atoms);
  std::uint64_t counter = seed << 32;
  for (std::size_t f = 0; f < frames; ++f) {
    for (float* lane : {pack.x(f), pack.y(f), pack.z(f)}) {
      for (std::size_t k = 0; k < atoms; ++k) {
        const std::uint64_t h = hash_mix(counter++);
        const auto mantissa =
            static_cast<std::int32_t>(h & 0xFFFFFF) - (1 << 23);
        const int shift = 8 + static_cast<int>((h >> 24) % 16);
        lane[k] = std::ldexp(static_cast<float>(mantissa), -shift);
      }
    }
  }
  return pack;
}

struct GoldenCase {
  std::uint64_t seed;  ///< seed of A; B uses seed + 1
  std::size_t frames_a;
  std::size_t frames_b;
  std::size_t atoms;
  std::uint64_t bits;  ///< IEEE-754 bits of the kScalar symmetric distance
  std::uint64_t vectorized_bits;  ///< the same under kVectorized
};

// Frame counts straddle kPairTile; atom counts straddle the 16-float
// lane padding. Seven of the kScalar and seven of the kVectorized
// values each change in the last bits when the AVX-512 clone is
// compiled with GCC's default -ffp-contract=fast (checked on an AVX-512
// host); nine of the kVectorized values change when the lane sum is
// regrouped.
constexpr GoldenCase kCases[] = {
    {1, 5, 7, 37, 0x40cad8633a24f16bull, 0x40cad8633bf15f21ull},
    {3, 9, 4, 16, 0x40cc0fb53439803dull, 0x40cc0fb538a0edc9ull},
    {5, 3, 11, 61, 0x40cdf903e61cdfd0ull, 0x40cdf903e084daabull},
    {41, 8, 2, 42, 0x40cb79ac435fc404ull, 0x40cb79ac48519fa8ull},
    {87, 5, 6, 33, 0x40cf705a2cf1e869ull, 0x40cf705a32aab2f2ull},
    {125, 3, 7, 1, 0x40c64cd1003e9553ull, 0x40c64cd1071dad26ull},
    {285, 5, 6, 14, 0x40cd7819cb2da923ull, 0x40cd7819cb4d7baeull},
    {337, 9, 4, 31, 0x40cc709dac8f2927ull, 0x40cc709daac0059eull},
    {339, 5, 7, 46, 0x40cf180144948e29ull, 0x40cf18014b4b9aa6ull},
    {395, 2, 9, 17, 0x40cf31556a9002a7ull, 0x40cf3155629b5049ull},
};

void expect_hausdorff_bits(KernelPolicy policy,
                           std::uint64_t GoldenCase::*pinned) {
  for (const GoldenCase& c : kCases) {
    const FramePack a = golden_pack(c.seed, c.frames_a, c.atoms);
    const FramePack b = golden_pack(c.seed + 1, c.frames_b, c.atoms);
    for (const bool early : {false, true}) {
      const double d = hausdorff_packed(a, b, early, policy);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d), c.*pinned)
          << std::hexfloat << d << " early " << early << ", seed " << c.seed
          << ", " << c.frames_a << "x" << c.frames_b << " frames, "
          << c.atoms << " atoms";
    }
  }
}

TEST(GoldenBitsTest, ScalarHausdorffMatchesPinnedBits) {
  expect_hausdorff_bits(KernelPolicy::kScalar, &GoldenCase::bits);
}

TEST(GoldenBitsTest, VectorizedHausdorffMatchesPinnedBits) {
  expect_hausdorff_bits(KernelPolicy::kVectorized,
                        &GoldenCase::vectorized_bits);
}

TEST(GoldenBitsTest, VectorizedRmsd2dRowMatchesPinnedBits) {
  // Row 0 of the third case's 3 x 11 matrix: 61 atoms, four 16-float
  // lane blocks per pair.
  constexpr std::uint64_t kRow[] = {
      0x40ca6c1be6295ab1ull, 0x40cdbe68026716e7ull, 0x40c92b69189944e3ull,
      0x40ca03cff6302ae8ull, 0x40c7275e776b4c2bull, 0x40c685bc3a262b19ull,
      0x40c88e119c3d4c1aull, 0x40c99e3cab962848ull, 0x40cdf903e084daabull,
      0x40c69b495a327c08ull, 0x40c638c2dce078deull};
  const GoldenCase& c = kCases[2];
  const FramePack a = golden_pack(c.seed, c.frames_a, c.atoms);
  const FramePack b = golden_pack(c.seed + 1, c.frames_b, c.atoms);
  ASSERT_EQ(b.frames(), std::size(kRow));
  std::vector<double> matrix(a.frames() * b.frames());
  rmsd2d_packed(a, b, KernelPolicy::kVectorized, matrix);
  for (std::size_t j = 0; j < b.frames(); ++j) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(matrix[j]), kRow[j])
        << std::hexfloat << matrix[j] << " at column " << j;
  }
}

}  // namespace
}  // namespace mdtask::kernels
