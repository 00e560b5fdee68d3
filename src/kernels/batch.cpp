// Batch kernel implementations. This TU is compiled -O3 -funroll-loops
// in every build type (see src/CMakeLists.txt) so the lane loops below
// vectorize. It is also compiled -ffp-contract=off: GCC contracts
// `a * b + c` into an FMA wherever the target has one, which would
// change the kScalar bits in the AVX2 and AVX-512 clones below.
#include "mdtask/kernels/batch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

// Compiles a kernel's loop nest once per x86-64 ISA level (AVX-512,
// AVX2, the SSE2 baseline); glibc's ifunc resolver binds the widest
// clone the CPU supports, once, at load time. `flatten` inlines the leaf
// loops into each clone, so they run at the clone's vector width too.
// With contraction off and neither tier reassociating, every clone gives
// the same bits (GoldenBitsTest). Empty off x86-64 or GCC, and under
// TSan: GCC instruments the resolver, which runs before the TSan runtime
// is initialised.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define MDTASK_KERNEL_CLONES                                          \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3",    \
                               "default"),                            \
                 flatten))
#else
#define MDTASK_KERNEL_CLONES
#endif

namespace mdtask::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Independent accumulator lanes of the vectorized sum-of-squares; 16
/// floats = one AVX-512 vector / two AVX2 vectors / four SSE2 vectors,
/// and exactly the FramePack padding granularity (kLanePadFloats), so
/// the lane loop needs no tail.
constexpr std::size_t kLanes = 16;

/// Floats processed per lane between drains of the float partial sums
/// into double accumulators. Bounds the single-precision accumulation
/// error at ~kDrainIters * 2^-24 relative (worst case ~1.5e-5, typical
/// ~1e-6) independent of frame size.
constexpr std::size_t kDrainIters = 256;

/// Seed-order scalar pair kernel: one accumulator, per-atom
/// `s += dx*dx + dy*dy + dz*dz` exactly as analysis::frame_sumsq.
double pair_sumsq_scalar(const float* ax, const float* ay, const float* az,
                         const float* bx, const float* by, const float* bz,
                         std::size_t n) noexcept {
  double s = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double dx = static_cast<double>(ax[k]) - bx[k];
    const double dy = static_cast<double>(ay[k]) - by[k];
    const double dz = static_cast<double>(az[k]) - bz[k];
    s += dx * dx + dy * dy + dz * dz;
  }
  return s;
}

/// Multi-accumulator pair kernel: squared differences are computed and
/// accumulated in single precision (the input positions are floats, and
/// the squares are all non-negative, so there is no cancellation), with
/// the float lanes drained into double accumulators every kDrainIters
/// iterations and pairwise-reduced in double at the end. Relative error
/// vs the scalar double sum is ~1e-6 worst case. `n_padded` may extend
/// into the packs' zero padding (zero diffs add exactly 0.0f), letting
/// the main loop run without a scalar tail; it must be a multiple of
/// kLanes.
double pair_sumsq_lanes(const float* ax, const float* ay, const float* az,
                        const float* bx, const float* by, const float* bz,
                        std::size_t n_padded) noexcept {
  double total[kLanes] = {};
  std::size_t k = 0;
  while (k < n_padded) {
    const std::size_t chunk_end =
        std::min(n_padded, k + kDrainIters * kLanes);
    float acc[kLanes] = {};
    for (; k < chunk_end; k += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const float dx = ax[k + l] - bx[k + l];
        const float dy = ay[k + l] - by[k + l];
        const float dz = az[k + l] - bz[k + l];
        acc[l] += dx * dx + dy * dy + dz * dz;
      }
    }
    for (std::size_t l = 0; l < kLanes; ++l) total[l] += acc[l];
  }
  double pair[kLanes / 2];
  for (std::size_t l = 0; l < kLanes / 2; ++l) {
    pair[l] = total[2 * l] + total[2 * l + 1];
  }
  return (((pair[0] + pair[1]) + (pair[2] + pair[3])) +
          ((pair[4] + pair[5]) + (pair[6] + pair[7])));
}

double pair_sumsq(const FramePack& a, std::size_t i, const FramePack& b,
                  std::size_t j, KernelPolicy policy) noexcept {
  if (policy == KernelPolicy::kVectorized) {
    // Both packs share the atom count in every caller, hence the stride.
    return pair_sumsq_lanes(a.x(i), a.y(i), a.z(i), b.x(j), b.y(j), b.z(j),
                            a.stride());
  }
  return pair_sumsq_scalar(a.x(i), a.y(i), a.z(i), b.x(j), b.y(j), b.z(j),
                           a.atoms());
}

/// Transposes frames [j0, j0 + width) of `b` into `tile`, laid out
/// [atom][axis][lane] in double; lanes past `width` are zero.
void fill_pair_tile(const FramePack& b, std::size_t j0, std::size_t width,
                    double* tile) noexcept {
  const std::size_t atoms = b.atoms();
  if (width < kPairTile) std::fill_n(tile, atoms * 3 * kPairTile, 0.0);
  for (std::size_t l = 0; l < width; ++l) {
    const float* bx = b.x(j0 + l);
    const float* by = b.y(j0 + l);
    const float* bz = b.z(j0 + l);
    for (std::size_t k = 0; k < atoms; ++k) {
      double* t = tile + k * 3 * kPairTile + l;
      t[0] = bx[k];
      t[kPairTile] = by[k];
      t[2 * kPairTile] = bz[k];
    }
  }
}

/// Exact multi-pair kernel: the squared sums of one A frame against the
/// kPairTile B frames of `tile`. Lane l accumulates one frame pair with
/// pair_sumsq_scalar's per-atom expression and order, so the compiler
/// vectorizes across the lanes (pairs) and out[l] equals
/// pair_sumsq_scalar(a, b_{j0+l}) bit for bit.
void pair_tile_sumsq(const float* ax, const float* ay, const float* az,
                     const double* tile, std::size_t n,
                     double* out) noexcept {
  double s[kPairTile] = {};
  for (std::size_t k = 0; k < n; ++k) {
    const double x = ax[k], y = ay[k], z = az[k];
    const double* t = tile + k * 3 * kPairTile;
    for (std::size_t l = 0; l < kPairTile; ++l) {
      const double dx = x - t[l];
      const double dy = y - t[kPairTile + l];
      const double dz = z - t[2 * kPairTile + l];
      s[l] += dx * dx + dy * dy + dz * dz;
    }
  }
  for (std::size_t l = 0; l < kPairTile; ++l) out[l] = s[l];
}

/// sumsq_one_to_many without its checks: the directed scan's tile.
double sumsq_one_to_many_unchecked(const FramePack& a, std::size_t frame_a,
                                   const FramePack& b, std::size_t j_begin,
                                   std::size_t j_end, double* out_sumsq,
                                   KernelPolicy policy) noexcept {
  double m = kInf;
  for (std::size_t j = j_begin; j < j_end; ++j) {
    const double s = pair_sumsq(a, frame_a, b, j, policy);
    out_sumsq[j - j_begin] = s;
    if (s < m) m = s;
  }
  return m;
}

/// RMSD from a squared sum; 0 atoms is defined as distance 0 (the packed
/// kernels' uniform convention for degenerate inputs).
double rmsd_from_sumsq(double sumsq, std::size_t atoms) noexcept {
  return atoms == 0 ? 0.0 : std::sqrt(sumsq / static_cast<double>(atoms));
}

/// Scalar-policy directed scan: the seed's per-pair loop (metric value
/// computed and compared in the RMSD domain, per-pair early break) so
/// values AND evaluation counts are bit-identical to the seed.
MDTASK_KERNEL_CLONES
double directed_scalar(const FramePack& a, const FramePack& b,
                       bool early_break, std::size_t* evals) noexcept {
  const std::size_t atoms = a.atoms();
  double cmax = 0.0;
  for (std::size_t i = 0; i < a.frames(); ++i) {
    double cmin = kInf;
    for (std::size_t j = 0; j < b.frames(); ++j) {
      const double d =
          rmsd_from_sumsq(pair_sumsq(a, i, b, j, KernelPolicy::kScalar),
                          atoms);
      if (evals) ++*evals;
      if (d < cmin) {
        cmin = d;
        if (early_break && cmin <= cmax) break;
      }
    }
    if (cmin > cmax) cmax = cmin;
  }
  return cmax;
}

/// Vectorized directed scan: squared-sum domain, early break at
/// kFrameTile granularity. sqrt and /atoms are monotone, so the tiled
/// early break returns the full scan's value.
MDTASK_KERNEL_CLONES
double directed_tiled(const FramePack& a, const FramePack& b,
                      bool early_break, std::size_t* evals) noexcept {
  const std::size_t nb = b.frames();
  double tile_sums[kFrameTile];
  double cmax_ss = 0.0;
  bool any_row = false;
  for (std::size_t i = 0; i < a.frames(); ++i) {
    double cmin = kInf;
    for (std::size_t j0 = 0; j0 < nb; j0 += kFrameTile) {
      const std::size_t j1 = std::min(j0 + kFrameTile, nb);
      const double tile_min = sumsq_one_to_many_unchecked(
          a, i, b, j0, j1, tile_sums, KernelPolicy::kVectorized);
      if (evals) *evals += j1 - j0;
      if (tile_min < cmin) cmin = tile_min;
      if (early_break && cmin <= cmax_ss) break;
    }
    if (cmin > cmax_ss) cmax_ss = cmin;
    any_row = true;
  }
  if (!any_row) return 0.0;
  return rmsd_from_sumsq(cmax_ss, a.atoms());
}

/// Naive symmetric Hausdorff in one pass over frames(A) x frames(B),
/// kPairTile B frames at a time. Each pair's squared sum updates the A
/// frame's row minimum and the B frame's column minimum; the directed
/// maxima are reduced in the squared-sum domain and take one sqrt each.
MDTASK_KERNEL_CLONES
double symmetric_one_pass(const FramePack& a, const FramePack& b,
                          KernelPolicy policy) {
  const std::size_t na = a.frames();
  const std::size_t nb = b.frames();
  const std::size_t atoms = a.atoms();
  const bool scalar = policy == KernelPolicy::kScalar;
  // One allocation per call: the row minima, then the kScalar pair tile.
  std::vector<double> scratch(na + (scalar ? atoms * 3 * kPairTile : 0),
                              kInf);
  double* row_min = scratch.data();
  double* tile = row_min + na;
  double col_max = 0.0;
  for (std::size_t j0 = 0; j0 < nb; j0 += kPairTile) {
    const std::size_t width = std::min(kPairTile, nb - j0);
    if (scalar) fill_pair_tile(b, j0, width, tile);
    double col_min[kPairTile];
    std::fill_n(col_min, kPairTile, kInf);
    for (std::size_t i = 0; i < na; ++i) {
      double s[kPairTile];
      if (scalar) {
        pair_tile_sumsq(a.x(i), a.y(i), a.z(i), tile, atoms, s);
      } else {
        for (std::size_t l = 0; l < width; ++l) {
          s[l] = pair_sumsq(a, i, b, j0 + l, policy);
        }
      }
      for (std::size_t l = 0; l < width; ++l) {
        if (s[l] < row_min[i]) row_min[i] = s[l];
        if (s[l] < col_min[l]) col_min[l] = s[l];
      }
    }
    for (std::size_t l = 0; l < width; ++l) {
      if (col_min[l] > col_max) col_max = col_min[l];
    }
  }
  double row_max = 0.0;
  for (std::size_t i = 0; i < na; ++i) {
    if (row_min[i] > row_max) row_max = row_min[i];
  }
  return std::max(rmsd_from_sumsq(row_max, atoms),
                  rmsd_from_sumsq(col_max, atoms));
}

/// rmsd2d_packed's loop nest.
MDTASK_KERNEL_CLONES
void rmsd2d_tiles(const FramePack& a, const FramePack& b, KernelPolicy policy,
                  std::span<double> out) noexcept {
  const std::size_t na = a.frames();
  const std::size_t nb = b.frames();
  const std::size_t atoms = a.atoms();
  if (policy == KernelPolicy::kScalar) {
    for (std::size_t i = 0; i < na; ++i) {
      for (std::size_t j = 0; j < nb; ++j) {
        out[i * nb + j] =
            rmsd_from_sumsq(pair_sumsq(a, i, b, j, policy), atoms);
      }
    }
    return;
  }
  for (std::size_t i0 = 0; i0 < na; i0 += kFrameTile) {
    const std::size_t i1 = std::min(i0 + kFrameTile, na);
    for (std::size_t j0 = 0; j0 < nb; j0 += kFrameTile) {
      const std::size_t j1 = std::min(j0 + kFrameTile, nb);
      for (std::size_t i = i0; i < i1; ++i) {
        for (std::size_t j = j0; j < j1; ++j) {
          out[i * nb + j] =
              rmsd_from_sumsq(pair_sumsq(a, i, b, j, policy), atoms);
        }
      }
    }
  }
}

/// The packed kernels index both packs' lanes with one atom count.
void require_equal_atoms(const FramePack& a, const FramePack& b,
                         const char* kernel) {
  if (a.atoms() != b.atoms()) {
    throw std::invalid_argument(std::string(kernel) + ": packs of " +
                                std::to_string(a.atoms()) + " and " +
                                std::to_string(b.atoms()) + " atoms");
  }
}

}  // namespace

double frame_sumsq_packed(const FramePack& a, std::size_t frame_a,
                          const FramePack& b, std::size_t frame_b,
                          KernelPolicy policy) {
  require_equal_atoms(a, b, "frame_sumsq_packed");
  return pair_sumsq(a, frame_a, b, frame_b, policy);
}

double sumsq_one_to_many(const FramePack& a, std::size_t frame_a,
                         const FramePack& b, std::size_t j_begin,
                         std::size_t j_end, std::span<double> out_sumsq,
                         KernelPolicy policy) {
  require_equal_atoms(a, b, "sumsq_one_to_many");
  if (j_end > j_begin && out_sumsq.size() < j_end - j_begin) {
    throw std::invalid_argument(
        "sumsq_one_to_many: out_sumsq holds " +
        std::to_string(out_sumsq.size()) + " of " +
        std::to_string(j_end - j_begin) + " frames");
  }
  return sumsq_one_to_many_unchecked(a, frame_a, b, j_begin, j_end,
                                     out_sumsq.data(), policy);
}

double hausdorff_directed_packed(const FramePack& a, const FramePack& b,
                                 bool early_break, KernelPolicy policy,
                                 std::size_t* evals) {
  require_equal_atoms(a, b, "hausdorff_directed_packed");
  if (a.atoms() == 0) {
    // Degenerate topology: every frame distance is 0 by convention (no
    // metric evaluations are charged under any policy).
    return 0.0;
  }
  if (policy == KernelPolicy::kScalar) {
    return directed_scalar(a, b, early_break, evals);
  }
  return directed_tiled(a, b, early_break, evals);
}

double hausdorff_packed(const FramePack& a, const FramePack& b,
                        bool early_break, KernelPolicy policy,
                        std::size_t* evals) {
  require_equal_atoms(a, b, "hausdorff_packed");
  if (early_break) {
    return std::max(
        hausdorff_directed_packed(a, b, early_break, policy, evals),
        hausdorff_directed_packed(b, a, early_break, policy, evals));
  }
  if (a.atoms() == 0) return 0.0;
  if (evals) *evals += 2 * a.frames() * b.frames();
  return symmetric_one_pass(a, b, policy);
}

void rmsd2d_packed(const FramePack& a, const FramePack& b,
                   KernelPolicy policy, std::span<double> out) {
  require_equal_atoms(a, b, "rmsd2d_packed");
  rmsd2d_tiles(a, b, policy, out);
}

namespace {

/// Row block height of the cutoff kernel: hits are buffered per row
/// across column tiles so the emitted order stays row-major.
constexpr std::size_t kCutoffRowTile = 32;

void cutoff_scalar(const float* rx, const float* ry, const float* rz,
                   std::size_t nr, const float* cx, const float* cy,
                   const float* cz, std::size_t nc, double c2,
                   std::vector<IndexPair>& out) {
  for (std::size_t i = 0; i < nr; ++i) {
    const double xi = rx[i], yi = ry[i], zi = rz[i];
    for (std::size_t j = 0; j < nc; ++j) {
      const double dx = xi - cx[j];
      const double dy = yi - cy[j];
      const double dz = zi - cz[j];
      if (dx * dx + dy * dy + dz * dz <= c2) {
        out.push_back({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j)});
      }
    }
  }
}

/// Candidate-group width of the cutoff pre-filter: one cmpps-reduced
/// block. Must divide kCutoffTile.
constexpr std::size_t kCutoffGroup = 16;

MDTASK_KERNEL_CLONES
void cutoff_tiled(const float* rx, const float* ry, const float* rz,
                  std::size_t nr, const float* cx, const float* cy,
                  const float* cz, std::size_t nc, double c2,
                  std::vector<IndexPair>& out) {
  float f2[kCutoffTile];
  // Conservative float acceptance threshold for the pre-filter. The float
  // sweep's relative error vs the exact double expression is < 1e-6, so
  // widening the cut by 1e-5 guarantees every true hit survives the
  // filter; survivors are confirmed with the exact double predicate, so
  // the emitted pairs are identical to the reference scan's.
  const float c2m = static_cast<float>(c2 * (1.0 + 1e-5));
  std::vector<std::vector<IndexPair>> row_hits(kCutoffRowTile);
  for (std::size_t i0 = 0; i0 < nr; i0 += kCutoffRowTile) {
    const std::size_t i1 = std::min(i0 + kCutoffRowTile, nr);
    for (auto& rh : row_hits) rh.clear();
    for (std::size_t j0 = 0; j0 < nc; j0 += kCutoffTile) {
      const std::size_t j1 = std::min(j0 + kCutoffTile, nc);
      const std::size_t w = j1 - j0;
      for (std::size_t i = i0; i < i1; ++i) {
        auto& rh = row_hits[i - i0];
        const double xi = rx[i], yi = ry[i], zi = rz[i];
        // Pass 1: branch-free single-precision distance sweep (the
        // compiler vectorizes it four-to-sixteen wide).
        const float xf = rx[i], yf = ry[i], zf = rz[i];
        for (std::size_t j = 0; j < w; ++j) {
          const float dx = xf - cx[j0 + j];
          const float dy = yf - cy[j0 + j];
          const float dz = zf - cz[j0 + j];
          f2[j] = dx * dx + dy * dy + dz * dz;
        }
        // Pass 2: vectorized count per group of kCutoffGroup candidates
        // skips hitless groups without a per-element branch; only
        // groups with candidates pay the exact double confirmation.
        for (std::size_t g = 0; g < w; g += kCutoffGroup) {
          const std::size_t ge = std::min(w, g + kCutoffGroup);
          unsigned any = 0;
          for (std::size_t j = g; j < ge; ++j) {
            any += f2[j] <= c2m ? 1u : 0u;
          }
          if (any == 0) continue;
          for (std::size_t j = g; j < ge; ++j) {
            if (f2[j] <= c2m) {
              const double dx = xi - cx[j0 + j];
              const double dy = yi - cy[j0 + j];
              const double dz = zi - cz[j0 + j];
              if (dx * dx + dy * dy + dz * dz <= c2) {
                rh.push_back({static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j0 + j)});
              }
            }
          }
        }
      }
    }
    for (std::size_t i = i0; i < i1; ++i) {
      const auto& rh = row_hits[i - i0];
      out.insert(out.end(), rh.begin(), rh.end());
    }
  }
}

}  // namespace

void cutoff_pairs_packed(const FramePack& rows, const FramePack& cols,
                         double cutoff, KernelPolicy /*policy*/,
                         std::vector<IndexPair>& out) {
  if (rows.empty() || cols.empty()) return;
  cutoff_tiled(rows.x(0), rows.y(0), rows.z(0), rows.atoms(), cols.x(0),
               cols.y(0), cols.z(0), cols.atoms(), cutoff * cutoff, out);
}

void cutoff_pairs_reference(const FramePack& rows, const FramePack& cols,
                            double cutoff, std::vector<IndexPair>& out) {
  if (rows.empty() || cols.empty()) return;
  cutoff_scalar(rows.x(0), rows.y(0), rows.z(0), rows.atoms(), cols.x(0),
                cols.y(0), cols.z(0), cols.atoms(), cutoff * cutoff, out);
}

}  // namespace mdtask::kernels
