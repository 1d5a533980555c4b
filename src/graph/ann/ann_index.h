// Approximate-nearest-neighbor candidate retrieval over embedding rows
// (DESIGN.md §11) — the sublinear answer to the O(n1 * n2 * d) similarity
// wall (ROADMAP item 2).
//
// An AnnIndex is built once over the n2 "base" rows (target-side
// embeddings) and then answers batched inner-product top-k queries in
// sublinear time per query: O(probed candidates) for the multi-table
// cosine LSH that backs it. The index:
//
//   * is deterministic given the config seed — construction draws from a
//     seeded Rng, queries are pure functions of the index — so ANN-vs-exact
//     recall comparisons are reproducible across runs and thread counts;
//   * reserves its footprint against ctx.budget() (EstimateAnnIndexBytes
//     + MemoryScope, the DESIGN.md §9 admission contract) and allocates
//     through Matrix::TryCreate, degrading to ResourceExhausted instead of
//     bad_alloc;
//   * honors RunContext deadlines/cancellation: an expired build returns a
//     truncated-but-valid index over the rows inserted so far, an expired
//     query batch returns the leading rows computed so far
//     (rows_computed < rows), mirroring the ChunkedTopK wind-down contract.
//
// Results come back as TopKAlignment — the same compressed per-row top-k
// the chunked exact path produces — so every consumer (anchor extraction,
// ComputeMetricsTopK, stability refinement) works unchanged on retrieved
// candidate sets.
#pragma once

#include <cstdint>
#include <memory>

#include "common/run_context.h"
#include "common/status.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"

namespace galign {

/// Whether AlignTopK routes through the ANN layer.
enum class AnnMode {
  kAuto,  ///< ANN above the size threshold, exact below (the default)
  kOn,    ///< always route through the index (tests / benches)
  kOff,   ///< always exact
};

/// \brief Tuning knobs of the signed-random-projection cosine LSH index
/// (multi-table + multiprobe).
///
/// The defaults favor recall over speed (the recall property test holds
/// the index to >= the configured target on generated workloads); benches
/// sweep them for recall-vs-QPS curves.
struct AnnConfig {
  uint64_t seed = 42;  ///< hyperplane stream
  int64_t lsh_tables = 8;  ///< independent hash tables (unioned candidates)
  /// Hyperplanes (= signature bits) per table; 0 = auto-scale to
  /// ~ceil(log2(n)) so buckets stay thin (about one point each) at any
  /// index size — multiprobe supplies the neighborhood, not fat buckets.
  /// Clamped to 20 (bounds the direct-addressed offset arrays).
  int64_t lsh_bits = 0;
  /// Multiprobe: buckets visited per table (the exact bucket plus probes-1
  /// single-bit flips in order of ascending projection confidence).
  int64_t lsh_probes = 16;
};

/// \brief Routing policy consulted by AlignTopK implementations
/// (DESIGN.md §11): when to leave the exact chunked path for the index.
struct AnnPolicy {
  AnnMode mode = AnnMode::kAuto;
  /// Requested recall of ANN top-k vs. the exact top-k. Maps to search
  /// effort (probe counts scale up with the target); the recall property
  /// test measures the achieved value.
  double recall_target = 0.98;
  /// kAuto threshold: both sides must have at least this many rows before
  /// index construction can amortize against the O(n1 * n2 * d) scan.
  int64_t min_rows = 4096;
  /// Candidate-set width for the stability-refinement scan (Eq. 13 only
  /// needs argmax candidates, not the dense row).
  int64_t refine_candidates = 32;
  AnnConfig config;
};

/// \brief Batched inner-product top-k retrieval over an immutable row set.
///
/// Indices are immutable after construction; QueryBatch is const and safe
/// to call from many threads concurrently (the serving arc's read path).
class AnnIndex {
 public:
  virtual ~AnnIndex() = default;

  /// Rows actually indexed (== base rows unless the build wound down).
  virtual int64_t size() const = 0;
  /// Embedding dimensionality.
  virtual int64_t dim() const = 0;
  /// True when a deadline/cancellation truncated construction; the index
  /// answers queries over the inserted prefix only.
  virtual bool truncated() const = 0;
  /// Bytes held by the index (base copy + retrieval structure).
  virtual uint64_t MemoryBytes() const = 0;
  /// The indexed base rows (the matrix handed to BuildAnnIndex). Exposed
  /// for serialization and behavioral fingerprinting (graph/ann/ann_io.h);
  /// immutable like the rest of the index.
  virtual const Matrix& base() const = 0;
  /// The configuration the index was built from (as handed to
  /// BuildAnnIndex, before the auto rules resolve), which its recipe
  /// records.
  virtual const AnnConfig& config() const = 0;

  /// \brief Per-row top-k of `queries` against the indexed base rows by
  /// inner product, descending per row, ties toward the smaller base index
  /// (the TopKSelect contract, so results are comparable with the exact
  /// chunked path).
  ///
  /// Rows beyond rows_computed (deadline wind-down) hold -1. `k` is
  /// clamped to size(). Thread-safe.
  ///
  /// `effort` in (0, 1] scales query-time search breadth (the multiprobe
  /// count) without touching the immutable structure: values below 1 trade
  /// recall for latency. This is the serving layer's degradation knob
  /// (DESIGN.md §12) — a loaded server steps effort down instead of
  /// queueing unboundedly. Clamped to at least one probe (the exact
  /// bucket); effort 1 is exactly the configured search.
  [[nodiscard]] virtual Result<TopKAlignment> QueryBatch(
      const Matrix& queries, int64_t k, const RunContext& ctx = RunContext(),
      double effort = 1.0) const = 0;
};

/// \brief Builds the LSH index over `base` (rows = points to index). Takes
/// ownership of `base`; the index keeps it for exact re-ranking. Reserves
/// EstimateAnnIndexBytes against ctx.budget() for the life of the index.
[[nodiscard]] Result<std::unique_ptr<AnnIndex>> BuildAnnIndex(
    Matrix base, const AnnConfig& config,
    const RunContext& ctx = RunContext());

/// Order-of-magnitude peak bytes BuildAnnIndex needs for n rows of
/// dimension d under `config` (the pre-flight admission estimate).
uint64_t EstimateAnnIndexBytes(int64_t n, int64_t dim,
                               const AnnConfig& config);

/// Effective signature width for an LSH index over n points (resolves the
/// lsh_bits == 0 auto rule).
int64_t EffectiveLshBits(const AnnConfig& config, int64_t n);

}  // namespace galign
