// The re-rank kernel of candidate retrieval (DESIGN.md §11): one query row
// scored against a list of rows, eight candidates at a time, one per SIMD
// lane. LSH re-ranking (LshIndex::QueryBatch) and the candidate stability
// scan (ScanStabilityCandidates) both score through it.
#pragma once

#include <cstdint>

namespace galign {

/// \brief out[c] = <q, rows[c]> over d entries, for c < n.
///
/// Each score has the bits of the plain loop
///
///     double acc = 0.0;
///     for (int64_t i = 0; i < d; ++i) acc += q[i] * rows[c][i];
///
/// as GCC compiles it at -O3 under its C++ default -ffp-contract=fast:
/// every product is rounded, then added in index order, except that where
/// FMA is available (__FMA__) an odd d's last product is fused into the
/// sum (that loop's scalar epilogue). The baseline ISA never fuses. A lane
/// holds one candidate's chain and eight chains advance together, so no
/// chain is reordered; the single dependent add per product is what bounded
/// the plain loop. Published artifacts fingerprint these score bits
/// (AnnIndexFingerprint), so the contract is pinned by ann_test.
void RowDots(const double* q, const double* const* rows, int64_t n, int64_t d,
             double* out);

}  // namespace galign
