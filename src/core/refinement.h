// Alignment instantiation and stability-based refinement (paper §VI).
//
// Layer-wise alignment matrices S^(l) = H_s^(l) H_t^(l)T (Eq. 11) are
// aggregated by layer importances theta (Eq. 12). Refinement (Alg. 2)
// iteratively detects stable nodes (Eq. 13), amplifies their influence
// (Eq. 14) inside the propagation matrix (Eq. 15), re-embeds, and keeps the
// candidate with the best greedy score g(S) = sum_v max_u S(v, u).
//
// Refinement is incremental and exact (DESIGN.md §6, "Incremental
// refinement"): a changed influence factor can move only the embedding
// rows within l hops of its node at layer l, so each iteration re-embeds
// those rows and StabilityScanner rescans only the scores they can move.
// The scan streams row blocks, so no layer-wise n1 x n2 matrix is
// materialized (the paper's O(n) space argument, §VI-C). The one exception
// is the dense path, which returns an n1 x n2 matrix anyway: it keeps the
// layer-0 scores for the whole run (see RefineAlignment).
#pragma once

#include <vector>

#include "common/convergence.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/config.h"
#include "core/gcn.h"
#include "graph/ann/ann_index.h"
#include "graph/graph.h"
#include "la/matrix.h"

namespace galign {

/// Aggregated alignment matrix S = sum_l theta_l H_s^(l) H_t^(l)T (Eq. 12).
/// hs/ht hold k+1 layer embeddings; theta must have k+1 entries.
Matrix AggregateAlignment(const std::vector<Matrix>& hs,
                          const std::vector<Matrix>& ht,
                          const std::vector<double>& theta);

/// Result of one streaming pass over all layer-wise alignment matrices.
struct StabilityScan {
  /// Source nodes satisfying Eq. 13 (consistent argmax across layers, all
  /// layer scores above lambda).
  std::vector<int64_t> stable_source;
  /// Target nodes satisfying the symmetric column-wise condition.
  std::vector<int64_t> stable_target;
  /// g(S) = sum_v max_u S(v, u) of the aggregated matrix.
  double aggregate_score = 0.0;
};

/// theta_0 H_s^(0) H_t^(0)T, the layer-0 term of Eq. 12, computed exactly
/// as AggregateAlignment's first step (and StabilityScanner's per block).
Matrix LayerZeroScores(const std::vector<Matrix>& hs,
                       const std::vector<Matrix>& ht,
                       const std::vector<double>& theta);

/// \brief The exact stability scan (Eq. 13) and g(S), kept up to date as
/// embedding rows change.
///
/// For every layer Eq. 13 checks it holds each source row's and each target
/// column's first maximum (the largest score; on ties the lowest index),
/// and each source row's first maximum of the aggregated S: O(n1 + n2)
/// state. Rescan streams row blocks of at most 512 x n2 scores, so no
/// n1 x n2 matrix is held beyond the optional layer-0 scores below.
class StabilityScanner {
 public:
  /// First maxima of the rows or columns of one score matrix: value[i] and
  /// index[i] of row (column) i. A per-layer line whose scores never exceed
  /// -1e300 keeps (-1e300, -1), which Eq. 13 treats as unstable.
  struct FirstMax {
    std::vector<double> value;
    std::vector<int64_t> index;
  };

  /// Without `layer0_scores` every block multiplies every layer. With it,
  /// which must hold LayerZeroScores(hs, ht, theta) of every call's hs/ht
  /// (at least two layers) and outlive the scanner, blocks start from it
  /// instead of multiplying layer 0.
  explicit StabilityScanner(std::vector<double> theta, double lambda,
                            const Matrix* layer0_scores = nullptr);

  /// \brief Brings the statistics up to date with hs/ht.
  ///
  /// rows[l] (cols[l]) lists, ascending and without repeats, the rows of
  /// source (target) layer l that may differ from the previous call's; the
  /// first call must list every row and column of every layer, and is the
  /// full scan. Every layer is rescanned over the union of the lists: every
  /// score of a listed row, the listed columns of every other row, and, in
  /// full, each other row (column) whose old maximum sat in a listed column
  /// (row) and fell. The statistics are bit-identical to a full scan of
  /// hs/ht.
  void Rescan(const std::vector<Matrix>& hs, const std::vector<Matrix>& ht,
              const std::vector<std::vector<int64_t>>& rows,
              const std::vector<std::vector<int64_t>>& cols);

  /// Stable sets and g(S) of the current statistics (g summed in row
  /// order).
  StabilityScan Result() const;

  /// Row and column first maxima of layer `layer` (an index into hs; only
  /// the layers Eq. 13 checks: 1..k, or 0 when there is no other).
  const FirstMax& row_max(size_t layer) const { return rows_[layer - first_]; }
  const FirstMax& col_max(size_t layer) const { return cols_[layer - first_]; }
  /// First maxima of the aggregated S's rows.
  const FirstMax& aggregate_row_max() const { return agg_; }

 private:
  // Recomputes the listed rows from their full rows of scores; when
  // `fresh_cols` is non-null, also folds those scores into per-layer column
  // maxima over the listed rows.
  void ScanRows(const std::vector<Matrix>& hs, const std::vector<Matrix>& ht,
                const std::vector<int64_t>& rows,
                std::vector<FirstMax>* fresh_cols);
  // Scores the rows `rows` (none listed in this Rescan) at the columns
  // `cols`: folds them into the row statistics, marks in `fallen` the rows
  // whose old maximum fell, and folds column maxima over these rows into
  // `other_cols` (one entry per listed column).
  void ScanColumns(const std::vector<Matrix>& hs,
                   const std::vector<Matrix>& ht,
                   const std::vector<int64_t>& rows,
                   const std::vector<int64_t>& cols,
                   std::vector<FirstMax>* other_cols,
                   std::vector<char>* fallen);
  // Recomputes cols[l - first_] of each checked layer l from every row.
  void ScanWholeColumns(const std::vector<Matrix>& hs,
                        const std::vector<Matrix>& ht,
                        const std::vector<std::vector<int64_t>>& cols);

  std::vector<double> theta_;
  double lambda_;
  const Matrix* layer0_;
  size_t first_ = 0;             // first layer Eq. 13 checks
  std::vector<FirstMax> rows_;   // per checked layer, n1 entries
  std::vector<FirstMax> cols_;   // per checked layer, n2 entries
  FirstMax agg_;                 // aggregated S, n1 entries
  std::vector<char> row_listed_, col_listed_;  // the current Rescan's lists
};

/// One full StabilityScanner pass: stable nodes and g(S) without storing
/// any n1 x n2 matrix.
StabilityScan ScanStability(const std::vector<Matrix>& hs,
                            const std::vector<Matrix>& ht,
                            const std::vector<double>& theta, double lambda);

/// \brief Candidate-pair stability scan (DESIGN.md §11): O(n * k̃) instead
/// of O(n1 * n2).
///
/// Retrieves policy.refine_candidates targets per source row from an ANN
/// index over the concatenated target layers, then evaluates the per-layer
/// argmax statistics of Eq. 13 over those pairs only. Row statistics are
/// exact whenever the aggregate argmax is recalled; column statistics are
/// maxima over the retrieved pair set (the symmetric condition evaluated
/// on the same candidates, not a second index). Tie-breaking matches
/// ScanStability: first maximum wins, scanning ascending ids. Source rows
/// run on the pool in fixed slices whose column maxima merge in slice
/// order, so the result does not depend on the thread count.
[[nodiscard]] Result<StabilityScan> ScanStabilityCandidates(
    const std::vector<Matrix>& hs, const std::vector<Matrix>& ht,
    const std::vector<double>& theta, double lambda, const AnnPolicy& policy,
    const RunContext& ctx);

/// Eq. 13's statistics over candidate pairs, and the scan they give.
struct CandidateScan {
  /// Per layer Eq. 13 checks (1..k, or 0 when there is no other): each
  /// source row's first maximum over its candidates, and each target
  /// column's over the rows that retrieved it.
  std::vector<StabilityScanner::FirstMax> row_max, col_max;
  StabilityScan scan;
};

/// The statistics half of ScanStabilityCandidates: scores each of the first
/// candidates.rows_computed source rows against its retrieved targets
/// (index -1 slots are skipped).
CandidateScan ScanCandidatePairs(const std::vector<Matrix>& hs,
                                 const std::vector<Matrix>& ht,
                                 const std::vector<double>& theta,
                                 double lambda,
                                 const TopKAlignment& candidates);

/// Outcome of the refinement search.
struct RefinementResult {
  /// Best aggregated S found. Empty (0 x 0) when RefineAlignment was asked
  /// not to materialize it — budget-degraded callers rank the
  /// source/target_embeddings through the chunked top-k kernel instead.
  Matrix alignment;
  double best_score = 0.0;            ///< g of that S
  int best_iteration = 0;             ///< iteration it was found at
  std::vector<double> score_history;  ///< g(S) per iteration (index 0 = init)
  /// Layer embeddings (H^(0)..H^(k)) of the best-scoring iteration — the
  /// refined multi-order features (used e.g. by the Fig. 8 visualization).
  std::vector<Matrix> source_embeddings;
  std::vector<Matrix> target_embeddings;
  /// How the refinement loop exited: converged = the relative g(S)
  /// improvement fell below config.refinement_tolerance (always true at
  /// budget exhaustion when the tolerance is 0), residual = last relative
  /// improvement. degraded = influence compounding drove the embeddings
  /// non-finite and the loop fell back to the best finite iterate.
  ConvergenceReport report;
};

/// \brief Runs Alg. 2 with the trained GCN.
///
/// Embeds both networks once, then, each iteration, re-embeds only the
/// rows that the updated influence factors can reach (the closed l-hop
/// neighbourhood of the changed nodes at layer l) and rescans only the
/// scores those rows can move (StabilityScanner). Every iteration's
/// embeddings, stable sets and g(S) are bit-identical to a full re-embed
/// and full scan; an iteration with no stable node does no embedding or
/// scan work. Returns the best-scoring aggregated alignment matrix. When
/// `ctx` carries a deadline/cancellation token, the iteration loop winds
/// down early and returns the best iterate found so far (report.degraded).
///
/// With `materialize` false (DESIGN.md §9's budget-degraded and top-k path,
/// which consumes the embeddings instead) the run never holds an n1 x n2
/// matrix: the scan streams row blocks. With `materialize` true the
/// layer-0 scores (LayerZeroScores, n1 x n2) are computed once, and every
/// exact scan and the returned alignment start from them; the peak is the
/// same as the final aggregation's: the result plus one layer product.
///
/// When `ann` is non-null and ShouldUseAnn admits the problem size, each
/// iteration's stability scan runs over retrieved candidate pairs
/// (ScanStabilityCandidates), in full, instead of the exact scan; a scan
/// whose index cannot be admitted falls back to a full exact pass.
[[nodiscard]] Result<RefinementResult> RefineAlignment(const MultiOrderGcn& gcn,
                                         const AttributedGraph& source,
                                         const AttributedGraph& target,
                                         const GAlignConfig& config,
                                         const RunContext& ctx = RunContext(),
                                         bool materialize = true,
                                         const AnnPolicy* ann = nullptr);

}  // namespace galign
