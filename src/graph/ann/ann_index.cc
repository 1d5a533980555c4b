#include "graph/ann/ann_index.h"

#include <algorithm>

#include "common/memory_budget.h"

namespace galign {

int64_t EffectiveLshBits(const AnnConfig& config, int64_t n) {
  // The cap keeps the direct-addressed bucket-offset arrays bounded:
  // tables * 2^bits * 4 bytes, 4 MiB per table at 20 bits.
  if (config.lsh_bits > 0) {
    return std::min<int64_t>(config.lsh_bits, 20);
  }
  // Auto rule: ~1 point per bucket (2^bits >= n), clamped. Dense signatures
  // keep probed buckets thin on clustered data — with coarser buckets every
  // probe drags in whole near-duplicate groups and query cost scales with
  // group size instead of k.
  int64_t bits = 4;
  while (bits < 20 && (int64_t{1} << bits) < n) ++bits;
  return bits;
}

uint64_t EstimateAnnIndexBytes(int64_t n, int64_t dim,
                               const AnnConfig& config) {
  const uint64_t un = static_cast<uint64_t>(std::max<int64_t>(n, 0));
  const int64_t bits = EffectiveLshBits(config, n);
  const uint64_t tables =
      static_cast<uint64_t>(std::max<int64_t>(config.lsh_tables, 1));
  // Base copy + hyperplanes + per-table direct-addressed bucket offsets
  // (2^bits + 1) and packed id arrays, + the transient signatures and
  // projection block used while hashing.
  return DenseBytes(n, dim) + DenseBytes(tables * bits, dim) +
         tables * ((uint64_t{1} << bits) + 1 + un) * sizeof(int32_t) +
         un * (sizeof(uint32_t) + sizeof(int32_t)) +
         DenseBytes(4096, static_cast<int64_t>(tables) * bits);
}

}  // namespace galign
