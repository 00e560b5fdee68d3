// Golden bits of the exact kScalar tier.
//
// The packs below hold exactly representable floats built with integer
// operations only (a SplitMix64 hash, a 24-bit signed mantissa, a
// power-of-two scale), so no compiler flag can change the inputs. Their
// scales spread over 2^-8..2^-23, so frame differences carry more than
// 26 significant bits, their squares round, and a contracted (FMA)
// accumulation would change the sums. The pinned values are those of
// the two directed scans, which the one-pass naive scan must equal; a
// build whose kernels contract, reorder or regroup the kScalar
// arithmetic fails here, whatever its -march.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

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
  std::uint64_t bits;  ///< IEEE-754 bits of the symmetric distance
};

// Frame counts straddle kPairTile; atom counts straddle the 16-float
// lane padding. The last seven cases each change in the last bit when
// the kernels are built with -march=native and GCC's default
// -ffp-contract=fast (checked on an AVX-512 host).
constexpr GoldenCase kCases[] = {
    {1, 5, 7, 37, 0x40cad8633a24f16bull},
    {3, 9, 4, 16, 0x40cc0fb53439803dull},
    {5, 3, 11, 61, 0x40cdf903e61cdfd0ull},
    {41, 8, 2, 42, 0x40cb79ac435fc404ull},
    {87, 5, 6, 33, 0x40cf705a2cf1e869ull},
    {125, 3, 7, 1, 0x40c64cd1003e9553ull},
    {285, 5, 6, 14, 0x40cd7819cb2da923ull},
    {337, 9, 4, 31, 0x40cc709dac8f2927ull},
    {339, 5, 7, 46, 0x40cf180144948e29ull},
    {395, 2, 9, 17, 0x40cf31556a9002a7ull},
};

TEST(GoldenBitsTest, ScalarHausdorffMatchesPinnedBits) {
  for (const GoldenCase& c : kCases) {
    const FramePack a = golden_pack(c.seed, c.frames_a, c.atoms);
    const FramePack b = golden_pack(c.seed + 1, c.frames_b, c.atoms);
    for (const bool early : {false, true}) {
      const double d = hausdorff_packed(a, b, early, KernelPolicy::kScalar);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(d), c.bits)
          << std::hexfloat << d << " early " << early << ", seed " << c.seed
          << ", " << c.frames_a << "x" << c.frames_b << " frames, "
          << c.atoms << " atoms";
    }
  }
}

}  // namespace
}  // namespace mdtask::kernels
