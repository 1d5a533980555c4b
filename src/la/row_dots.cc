// Compiled with -ffp-contract=off (src/CMakeLists.txt): under GCC's default
// -ffp-contract=fast any `x += a * b` here may become an FMA, and a lane
// loop written as `acc += q * r` would fuse every product and change every
// score. The one fused product the contract asks for is spelled out with
// std::fma.
#include "la/row_dots.h"

#include <algorithm>
#include <cmath>

namespace galign {
namespace {

typedef double Vec8 __attribute__((vector_size(64)));
typedef double Vec8u __attribute__((vector_size(64), aligned(8), may_alias));
typedef int64_t Mask8 __attribute__((vector_size(64)));
constexpr int64_t kLanes = 8;

#if defined(__FMA__)
constexpr bool kFuseOddTail = true;
#else
constexpr bool kFuseOddTail = false;
#endif

// In-place 8 x 8 transpose: afterwards p[j][c] holds what p[c][j] held.
// Three rounds of two-source shuffles: pairs of rows, pairs of pairs, then
// the two halves.
inline void Transpose8(Vec8 p[kLanes]) {
  constexpr Mask8 kEven = {0, 8, 2, 10, 4, 12, 6, 14};
  constexpr Mask8 kOdd = {1, 9, 3, 11, 5, 13, 7, 15};
  constexpr Mask8 kPairLo = {0, 1, 8, 9, 4, 5, 12, 13};
  constexpr Mask8 kPairHi = {2, 3, 10, 11, 6, 7, 14, 15};
  constexpr Mask8 kHalfLo = {0, 1, 2, 3, 8, 9, 10, 11};
  constexpr Mask8 kHalfHi = {4, 5, 6, 7, 12, 13, 14, 15};
  Vec8 u[kLanes], w[kLanes];
  for (int c = 0; c < kLanes; c += 2) {
    u[c] = __builtin_shuffle(p[c], p[c + 1], kEven);
    u[c + 1] = __builtin_shuffle(p[c], p[c + 1], kOdd);
  }
  for (int h = 0; h < kLanes; h += 4) {
    for (int j = 0; j < 2; ++j) {
      w[h + j] = __builtin_shuffle(u[h + j], u[h + j + 2], kPairLo);
      w[h + j + 2] = __builtin_shuffle(u[h + j], u[h + j + 2], kPairHi);
    }
  }
  for (int j = 0; j < 4; ++j) {
    p[j] = __builtin_shuffle(w[j], w[j + 4], kHalfLo);
    p[j + 4] = __builtin_shuffle(w[j], w[j + 4], kHalfHi);
  }
}

}  // namespace

void RowDots(const double* q, const double* const* rows, int64_t n, int64_t d,
             double* out) {
  const int64_t body = d - d % kLanes;
  const bool fuse_last = kFuseOddTail && d % 2 == 1;
  const int64_t plain_end = fuse_last ? d - 1 : d;
  for (int64_t c0 = 0; c0 < n; c0 += kLanes) {
    const int64_t lanes = std::min(kLanes, n - c0);
    // A short last group repeats its last row in the spare lanes.
    const double* r[kLanes];
    for (int64_t c = 0; c < kLanes; ++c) {
      r[c] = rows[c0 + std::min(c, lanes - 1)];
    }
    // The next group's rows, fetched while this group computes: candidate
    // rows are scattered over a base that outgrows the caches, and these
    // gathers bound the kernel.
    const bool fetch_next = c0 + kLanes < n;
    const double* next[kLanes];
    for (int64_t c = 0; c < kLanes; ++c) {
      next[c] = rows[std::min(c0 + kLanes + c, n - 1)];
    }
    // Per block of eight entries: eight product vectors (one per
    // candidate), transposed so that p[j] holds entry j's product of every
    // candidate, then added to the lane sums in entry order.
    Vec8 acc = {};
    for (int64_t i = 0; i < body; i += kLanes) {
      const Vec8 qv = *reinterpret_cast<const Vec8u*>(q + i);
      Vec8 p[kLanes];
      for (int64_t c = 0; c < kLanes; ++c) {
        p[c] = qv * *reinterpret_cast<const Vec8u*>(r[c] + i);
      }
      if (fetch_next) {
        for (int64_t c = 0; c < kLanes; ++c) __builtin_prefetch(next[c] + i);
      }
      Transpose8(p);
      for (int64_t j = 0; j < kLanes; ++j) acc += p[j];
    }
    for (int64_t c = 0; c < lanes; ++c) {
      double a = acc[c];
      for (int64_t i = body; i < plain_end; ++i) a += q[i] * r[c][i];
      if (fuse_last) a = std::fma(q[d - 1], r[c][d - 1], a);
      out[c0 + c] = a;
    }
  }
}

}  // namespace galign
