#include "core/refinement.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "graph/ann/ann.h"
#include "la/ops.h"

namespace galign {

namespace {

// Row blocks hold at most this many rows of n2 scores.
constexpr int64_t kBlockRows = 512;
// Score of an empty per-layer line (StabilityScanner::FirstMax).
constexpr double kNoScore = -1e300;

// s += sum_{first <= l < last} theta_l H_s^(l) H_t^(l)T, one layer product
// at a time, in layer order.
Matrix AddLayerScores(Matrix s, const std::vector<Matrix>& hs,
                      const std::vector<Matrix>& ht,
                      const std::vector<double>& theta, size_t first,
                      size_t last) {
  for (size_t l = first; l < last; ++l) {
    if (theta[l] == 0.0) continue;
    s.Axpy(theta[l], MatMulTransposedB(hs[l], ht[l]));
  }
  return s;
}

std::vector<int64_t> AllIndices(int64_t n) {
  std::vector<int64_t> all(static_cast<size_t>(n));
  std::iota(all.begin(), all.end(), int64_t{0});
  return all;
}

// Every row of every layer: the lists of a full StabilityScanner::Rescan.
std::vector<std::vector<int64_t>> EveryRow(const std::vector<Matrix>& layers) {
  return std::vector<std::vector<int64_t>>(layers.size(),
                                           AllIndices(layers[0].rows()));
}

void ResetLine(StabilityScanner::FirstMax* line, int64_t n) {
  line->value.assign(static_cast<size_t>(n), kNoScore);
  line->index.assign(static_cast<size_t>(n), -1);
}

// Rows rows[begin, begin + count) of m, in list order.
Matrix GatherRows(const Matrix& m, const std::vector<int64_t>& rows,
                  int64_t begin, int64_t count) {
  Matrix out;
  out.Resize(count, m.cols());
  ParallelFor(0, count, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const double* src = m.row_data(rows[begin + i]);
      std::copy(src, src + m.cols(), out.row_data(i));
    }
  }, /*min_chunk=*/64);
  return out;
}

// Entries (rows[begin + i], cols[j]) of m for i < count.
Matrix GatherEntries(const Matrix& m, const std::vector<int64_t>& rows,
                     int64_t begin, int64_t count,
                     const std::vector<int64_t>& cols) {
  Matrix out;
  out.Resize(count, static_cast<int64_t>(cols.size()));
  ParallelFor(0, count, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const double* src = m.row_data(rows[begin + i]);
      double* dst = out.row_data(i);
      for (size_t j = 0; j < cols.size(); ++j) dst[j] = src[cols[j]];
    }
  }, /*min_chunk=*/64);
  return out;
}

// True when (x, i) comes before (m, j) as a first maximum: a larger value,
// or an equal one at a lower index.
bool Precedes(double x, int64_t i, double m, int64_t j) {
  return x > m || (x == m && i < j);
}

// Folds into a line's first maximum (*value, *index) the first maximum
// (fresh_value, fresh_index) of a subset of its scores that were
// recomputed; the scores outside the subset are unchanged. Returns false,
// leaving the line as it was, when the old maximum sat in the subset and
// fell: a score outside the subset may now lead, so the whole line must be
// rescanned.
bool FoldRecomputed(double* value, int64_t* index, double fresh_value,
                    int64_t fresh_index, bool old_in_subset) {
  if (old_in_subset && Precedes(*value, *index, fresh_value, fresh_index)) {
    return false;
  }
  if (old_in_subset || Precedes(fresh_value, fresh_index, *value, *index)) {
    *value = fresh_value;
    *index = fresh_index;
  }
  return true;
}

// The rows each GCN layer must recompute after the influence factors of
// `changed` moved (Eq. 15). alpha(v) enters row v and column v of C, so
// layer 1 changes on the closed neighbourhood of the changed nodes, and
// each further layer on the closed neighbourhood of the previous layer's
// rows. result[l - 1] lists layer l's rows, ascending. `adjacency` is
// symmetric, so its rows list each node's neighbours.
std::vector<std::vector<int64_t>> ReachedRows(
    const SparseMatrix& adjacency, const std::vector<int64_t>& changed,
    int layers) {
  std::vector<std::vector<int64_t>> reached(static_cast<size_t>(layers));
  if (changed.empty()) return reached;
  const std::vector<int64_t>& ptr = adjacency.row_ptr();
  const std::vector<int64_t>& col = adjacency.col_idx();
  std::vector<char> mark(static_cast<size_t>(adjacency.rows()), 0);
  for (const int64_t v : changed) mark[v] = 1;
  std::vector<int64_t> frontier = changed;
  for (int l = 0; l < layers; ++l) {
    std::vector<int64_t> next;
    for (const int64_t v : frontier) {
      for (int64_t i = ptr[v]; i < ptr[v + 1]; ++i) {
        if (!mark[col[i]]) {
          mark[col[i]] = 1;
          next.push_back(col[i]);
        }
      }
    }
    frontier = std::move(next);
    for (int64_t v = 0; v < adjacency.rows(); ++v) {
      if (mark[v]) reached[l].push_back(v);
    }
  }
  return reached;
}

// Whether rows[l - 1] of each layer l >= 1 of `layers` are finite.
bool RowsFinite(const std::vector<Matrix>& layers,
                const std::vector<std::vector<int64_t>>& rows) {
  for (size_t l = 0; l < rows.size(); ++l) {
    const Matrix& h = layers[l + 1];
    for (const int64_t v : rows[l]) {
      const double* p = h.row_data(v);
      for (int64_t c = 0; c < h.cols(); ++c) {
        if (!std::isfinite(p[c])) return false;
      }
    }
  }
  return true;
}

// First maxima of a block of scores: each row's over the block's columns
// (into `rows_out`, indexed by block column; may be null), and each
// column's over the block's rows, folded into `cols` with the row ids
// `row_ids` (may be null). Rows run on the pool in fixed slices whose
// column maxima are merged in row order, so the result is that of one
// sequential scan with strict `>` updates whatever the thread count.
void BlockFirstMax(const Matrix& block, const int64_t* row_ids,
                   StabilityScanner::FirstMax* rows_out,
                   StabilityScanner::FirstMax* cols) {
  constexpr int64_t kSliceRows = 64;
  const int64_t m = block.rows();
  const int64_t w = block.cols();
  const int64_t slices = (m + kSliceRows - 1) / kSliceRows;
  if (rows_out != nullptr) {
    rows_out->value.resize(static_cast<size_t>(m));
    rows_out->index.resize(static_cast<size_t>(m));
  }
  std::vector<double> part_value;
  std::vector<int64_t> part_index;
  if (cols != nullptr) {
    part_value.assign(static_cast<size_t>(slices * w), kNoScore);
    part_index.assign(static_cast<size_t>(slices * w), -1);
  }
  ParallelFor(
      0, slices,
      [&](int64_t s0, int64_t s1) {
        for (int64_t s = s0; s < s1; ++s) {
          double* cv = cols != nullptr ? part_value.data() + s * w : nullptr;
          int64_t* ci = cols != nullptr ? part_index.data() + s * w : nullptr;
          const int64_t end = std::min(m, (s + 1) * kSliceRows);
          for (int64_t i = s * kSliceRows; i < end; ++i) {
            const double* p = block.row_data(i);
            double best = kNoScore;
            int64_t arg = -1;
            for (int64_t k = 0; k < w; ++k) {
              if (p[k] > best) {
                best = p[k];
                arg = k;
              }
              if (cv != nullptr && p[k] > cv[k]) {
                cv[k] = p[k];
                ci[k] = row_ids[i];
              }
            }
            if (rows_out != nullptr) {
              rows_out->value[i] = best;
              rows_out->index[i] = arg;
            }
          }
        }
      },
      /*min_chunk=*/1);
  if (cols == nullptr) return;
  for (int64_t s = 0; s < slices; ++s) {
    for (int64_t k = 0; k < w; ++k) {
      const size_t at = static_cast<size_t>(s * w + k);
      if (Precedes(part_value[at], part_index[at], cols->value[k],
                   cols->index[k])) {
        cols->value[k] = part_value[at];
        cols->index[k] = part_index[at];
      }
    }
  }
}

}  // namespace

Matrix AggregateAlignment(const std::vector<Matrix>& hs,
                          const std::vector<Matrix>& ht,
                          const std::vector<double>& theta) {
  GALIGN_DCHECK(hs.size() == ht.size());
  GALIGN_DCHECK(hs.size() == theta.size());
  return AddLayerScores(Matrix(hs[0].rows(), ht[0].rows()), hs, ht, theta,
                        /*first=*/0, /*last=*/hs.size());
}

Matrix LayerZeroScores(const std::vector<Matrix>& hs,
                       const std::vector<Matrix>& ht,
                       const std::vector<double>& theta) {
  return AddLayerScores(Matrix(hs[0].rows(), ht[0].rows()), hs, ht, theta,
                        /*first=*/0, /*last=*/1);
}

// Stability (Eq. 13) is evaluated over the GCN layers l >= 1. The raw
// attribute layer H^(0) is excluded from the argmax-consistency check: with
// low-dimensional categorical attributes many nodes share identical
// attribute rows, making the layer-0 argmax a tie-break lottery that would
// mark every node unstable. Only the layers checked keep first maxima;
// layer 0 still enters the aggregate.
StabilityScanner::StabilityScanner(std::vector<double> theta, double lambda,
                                   const Matrix* layer0_scores)
    : theta_(std::move(theta)),
      lambda_(lambda),
      layer0_(layer0_scores),
      first_(theta_.size() > 1 ? 1 : 0) {
  GALIGN_DCHECK(layer0_ == nullptr || first_ == 1);
}

void StabilityScanner::Rescan(const std::vector<Matrix>& hs,
                              const std::vector<Matrix>& ht,
                              const std::vector<std::vector<int64_t>>& rows,
                              const std::vector<std::vector<int64_t>>& cols) {
  const size_t layers = hs.size();
  GALIGN_DCHECK(ht.size() == layers && theta_.size() == layers);
  GALIGN_DCHECK(rows.size() == layers && cols.size() == layers);
  const int64_t n1 = hs[0].rows();
  const int64_t n2 = ht[0].rows();
  GALIGN_DCHECK(layer0_ == nullptr ||
                (layer0_->rows() == n1 && layer0_->cols() == n2));
  const size_t checked = layers - first_;
  if (rows_.size() != checked) {
    // First call: it lists every row and column, so all of it is written.
    rows_.resize(checked);
    cols_.resize(checked);
    for (size_t c = 0; c < checked; ++c) {
      ResetLine(&rows_[c], n1);
      ResetLine(&cols_[c], n2);
    }
    ResetLine(&agg_, n1);
  }
  if (n1 == 0 || n2 == 0) return;
  // A change in any layer moves the aggregate, so every layer is rescanned
  // over the union of the lists.
  row_listed_.assign(static_cast<size_t>(n1), 0);
  col_listed_.assign(static_cast<size_t>(n2), 0);
  for (const std::vector<int64_t>& list : rows) {
    for (const int64_t v : list) row_listed_[v] = 1;
  }
  for (const std::vector<int64_t>& list : cols) {
    for (const int64_t u : list) col_listed_[u] = 1;
  }
  std::vector<int64_t> listed_rows, listed_cols, others;
  for (int64_t v = 0; v < n1; ++v) {
    (row_listed_[v] ? listed_rows : others).push_back(v);
  }
  for (int64_t u = 0; u < n2; ++u) {
    if (col_listed_[u]) listed_cols.push_back(u);
  }
  if (listed_rows.empty() && listed_cols.empty()) return;

  // 1. Every score of the listed rows. Column maxima over these rows are
  //    kept apart, so the old ones are still at hand in step 3.
  std::vector<FirstMax> fresh(checked);
  for (FirstMax& line : fresh) ResetLine(&line, n2);
  ScanRows(hs, ht, listed_rows, &fresh);

  // 2. The listed columns of every other row.
  std::vector<FirstMax> other(checked);
  for (FirstMax& line : other) {
    ResetLine(&line, static_cast<int64_t>(listed_cols.size()));
  }
  std::vector<char> fallen(static_cast<size_t>(n1), 0);
  if (!listed_cols.empty() && !others.empty()) {
    ScanColumns(hs, ht, others, listed_cols, &other, &fallen);
  }

  // 3. Column statistics: a listed column's maximum runs over both row
  //    sets; any other column folds the listed rows' maximum into its old
  //    one.
  std::vector<std::vector<int64_t>> whole_cols(checked);
  for (size_t c = 0; c < checked; ++c) {
    FirstMax& col = cols_[c];
    size_t k = 0;
    for (int64_t u = 0; u < n2; ++u) {
      if (col_listed_[u]) {
        col.value[u] = fresh[c].value[u];
        col.index[u] = fresh[c].index[u];
        if (Precedes(other[c].value[k], other[c].index[k], col.value[u],
                     col.index[u])) {
          col.value[u] = other[c].value[k];
          col.index[u] = other[c].index[k];
        }
        ++k;
      } else if (!listed_rows.empty()) {
        const int64_t a = col.index[u];
        if (!FoldRecomputed(&col.value[u], &col.index[u], fresh[c].value[u],
                            fresh[c].index[u], a >= 0 && row_listed_[a])) {
          whole_cols[c].push_back(u);
        }
      }
    }
  }

  // 4. Whole rows and columns whose old maximum fell.
  std::vector<int64_t> fallen_rows;
  for (int64_t v = 0; v < n1; ++v) {
    if (fallen[v]) fallen_rows.push_back(v);
  }
  ScanRows(hs, ht, fallen_rows, nullptr);
  ScanWholeColumns(hs, ht, whole_cols);
}

void StabilityScanner::ScanRows(const std::vector<Matrix>& hs,
                                const std::vector<Matrix>& ht,
                                const std::vector<int64_t>& rows,
                                std::vector<FirstMax>* fresh_cols) {
  const int64_t n2 = ht[0].rows();
  const int64_t total = static_cast<int64_t>(rows.size());
  FirstMax line;
  for (int64_t b = 0; b < total; b += kBlockRows) {
    const int64_t m = std::min(kBlockRows, total - b);
    const int64_t* ids = rows.data() + b;
    // With the layer-0 scores the block starts from their rows, which hold
    // exactly what the layer-0 Axpy onto a zero block would.
    Matrix sum = layer0_ != nullptr ? GatherRows(*layer0_, rows, b, m)
                                    : Matrix(m, n2);
    for (size_t l = layer0_ != nullptr ? 1 : 0; l < hs.size(); ++l) {
      if (l < first_ && theta_[l] == 0.0) continue;
      const Matrix block =
          MatMulTransposedB(GatherRows(hs[l], rows, b, m), ht[l]);
      if (l >= first_) {
        BlockFirstMax(block, ids, &line,
                      fresh_cols != nullptr ? &(*fresh_cols)[l - first_]
                                            : nullptr);
        FirstMax& rm = rows_[l - first_];
        for (int64_t i = 0; i < m; ++i) {
          rm.value[ids[i]] = line.value[i];
          rm.index[ids[i]] = line.index[i];
        }
      }
      if (theta_[l] != 0.0) sum.Axpy(theta_[l], block);
    }
    ParallelFor(0, m, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const int64_t j = ArgMaxRow(sum, i);
        agg_.value[ids[i]] = sum(i, j);
        agg_.index[ids[i]] = j;
      }
    }, /*min_chunk=*/32);
  }
}

void StabilityScanner::ScanColumns(const std::vector<Matrix>& hs,
                                   const std::vector<Matrix>& ht,
                                   const std::vector<int64_t>& rows,
                                   const std::vector<int64_t>& cols,
                                   std::vector<FirstMax>* other_cols,
                                   std::vector<char>* fallen) {
  const int64_t n2 = ht[0].rows();
  const int64_t width = static_cast<int64_t>(cols.size());
  // Narrow blocks take more rows, up to the same kBlockRows x n2 scores.
  const int64_t block_rows = std::max<int64_t>(1, kBlockRows * n2 / width);
  const int64_t total = static_cast<int64_t>(rows.size());
  std::vector<Matrix> targets(hs.size());
  for (size_t l = layer0_ != nullptr ? 1 : 0; l < hs.size(); ++l) {
    if (l >= first_ || theta_[l] != 0.0) {
      targets[l] = GatherRows(ht[l], cols, 0, width);
    }
  }
  // Folds a recomputed subset's first maximum (block column k) into the
  // line of row ids[i] and marks the row when its old maximum fell.
  auto fold = [&](FirstMax* line, const int64_t* ids, int64_t i,
                  double value, int64_t k) {
    const int64_t v = ids[i];
    const int64_t a = line->index[v];
    if (!FoldRecomputed(&line->value[v], &line->index[v], value,
                        k >= 0 ? cols[k] : -1, a >= 0 && col_listed_[a])) {
      (*fallen)[v] = 1;
    }
  };
  FirstMax line;
  for (int64_t b = 0; b < total; b += block_rows) {
    const int64_t m = std::min(block_rows, total - b);
    const int64_t* ids = rows.data() + b;
    Matrix sum = layer0_ != nullptr ? GatherEntries(*layer0_, rows, b, m, cols)
                                    : Matrix(m, width);
    for (size_t l = 0; l < hs.size(); ++l) {
      if (targets[l].empty()) continue;
      const Matrix block =
          MatMulTransposedB(GatherRows(hs[l], rows, b, m), targets[l]);
      if (l >= first_) {
        BlockFirstMax(block, ids, &line, &(*other_cols)[l - first_]);
        for (int64_t i = 0; i < m; ++i) {
          fold(&rows_[l - first_], ids, i, line.value[i], line.index[i]);
        }
      }
      if (theta_[l] != 0.0) sum.Axpy(theta_[l], block);
    }
    ParallelFor(0, m, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const int64_t k = ArgMaxRow(sum, i);
        fold(&agg_, ids, i, sum(i, k), k);
      }
    }, /*min_chunk=*/32);
  }
}

void StabilityScanner::ScanWholeColumns(
    const std::vector<Matrix>& hs, const std::vector<Matrix>& ht,
    const std::vector<std::vector<int64_t>>& cols) {
  const int64_t n1 = hs[0].rows();
  const int64_t n2 = ht[0].rows();
  const std::vector<int64_t> ids = AllIndices(n1);
  for (size_t c = 0; c < cols.size(); ++c) {
    const std::vector<int64_t>& list = cols[c];
    if (list.empty()) continue;
    const size_t l = first_ + c;
    const int64_t width = static_cast<int64_t>(list.size());
    const int64_t block_rows = std::max<int64_t>(1, kBlockRows * n2 / width);
    const Matrix targets = GatherRows(ht[l], list, 0, width);
    FirstMax fresh;
    ResetLine(&fresh, width);
    for (int64_t r0 = 0; r0 < n1; r0 += block_rows) {
      const int64_t m = std::min(block_rows, n1 - r0);
      BlockFirstMax(
          MatMulTransposedB(hs[l].Block(r0, 0, m, hs[l].cols()), targets),
          ids.data() + r0, nullptr, &fresh);
    }
    for (int64_t k = 0; k < width; ++k) {
      cols_[c].value[list[k]] = fresh.value[k];
      cols_[c].index[list[k]] = fresh.index[k];
    }
  }
}

StabilityScan StabilityScanner::Result() const {
  StabilityScan out;
  const size_t checked = rows_.size();
  for (size_t v = 0; v < agg_.value.size(); ++v) {
    bool stable = true;
    for (size_t c = 0; c < checked && stable; ++c) {
      stable = rows_[c].index[v] == rows_[0].index[v] &&
               rows_[c].value[v] > lambda_;
    }
    if (stable) out.stable_source.push_back(static_cast<int64_t>(v));
  }
  const size_t n2 = checked > 0 ? cols_[0].value.size() : 0;
  for (size_t u = 0; u < n2; ++u) {
    bool stable = true;
    for (size_t c = 0; c < checked && stable; ++c) {
      stable = cols_[c].index[u] == cols_[0].index[u] &&
               cols_[c].value[u] > lambda_;
    }
    if (stable) out.stable_target.push_back(static_cast<int64_t>(u));
  }
  for (const double best : agg_.value) out.aggregate_score += best;
  return out;
}

StabilityScan ScanStability(const std::vector<Matrix>& hs,
                            const std::vector<Matrix>& ht,
                            const std::vector<double>& theta, double lambda) {
  StabilityScanner scanner(theta, lambda);
  scanner.Rescan(hs, ht, EveryRow(hs), EveryRow(ht));
  return scanner.Result();
}

Result<StabilityScan> ScanStabilityCandidates(const std::vector<Matrix>& hs,
                                              const std::vector<Matrix>& ht,
                                              const std::vector<double>& theta,
                                              double lambda,
                                              const AnnPolicy& policy,
                                              const RunContext& ctx) {
  GALIGN_DCHECK(hs.size() == ht.size() && hs.size() == theta.size());
  const size_t layers = hs.size();
  const int64_t n1 = hs[0].rows();
  const int64_t n2 = ht[0].rows();
  const int64_t kc =
      std::max<int64_t>(1, std::min(policy.refine_candidates, n2));

  auto cand = AnnEmbeddingTopK(hs, ht, theta, kc, policy, ctx);
  GALIGN_RETURN_NOT_OK(cand.status());
  const TopKAlignment& topk = cand.ValueOrDie();

  std::vector<std::vector<int64_t>> row_arg(layers,
                                            std::vector<int64_t>(n1, -1));
  std::vector<std::vector<double>> row_max(
      layers, std::vector<double>(n1, -1e300));
  std::vector<std::vector<int64_t>> col_arg(layers,
                                            std::vector<int64_t>(n2, -1));
  std::vector<std::vector<double>> col_max(
      layers, std::vector<double>(n2, -1e300));

  StabilityScan out;
  std::vector<int64_t> cands;
  cands.reserve(static_cast<size_t>(topk.k));
  for (int64_t v = 0; v < topk.rows_computed; ++v) {
    cands.clear();
    for (int64_t j = 0; j < topk.k; ++j) {
      const int64_t u = topk.index[v * topk.k + j];
      if (u >= 0) cands.push_back(u);
    }
    // Ascending ids so the strict `>` updates below break ties exactly
    // like the exact scan (first maximum wins).
    std::sort(cands.begin(), cands.end());
    double agg_max = -1e300;
    bool any = false;
    for (const int64_t u : cands) {
      double agg = 0.0;
      for (size_t l = 0; l < layers; ++l) {
        double s = 0.0;
        const double* a = hs[l].row_data(v);
        const double* b = ht[l].row_data(u);
        for (int64_t c = 0; c < hs[l].cols(); ++c) s += a[c] * b[c];
        if (s > row_max[l][v]) {
          row_max[l][v] = s;
          row_arg[l][v] = u;
        }
        if (s > col_max[l][u]) {
          col_max[l][u] = s;
          col_arg[l][u] = v;
        }
        if (theta[l] != 0.0) agg += theta[l] * s;
      }
      if (agg > agg_max) agg_max = agg;
      any = true;
    }
    if (any) out.aggregate_score += agg_max;
  }

  const size_t first = layers > 1 ? 1 : 0;
  for (int64_t v = 0; v < n1; ++v) {
    if (row_arg[first][v] < 0) continue;  // no candidates retrieved
    bool stable = true;
    for (size_t l = first; l < layers && stable; ++l) {
      stable = row_arg[l][v] == row_arg[first][v] && row_max[l][v] > lambda;
    }
    if (stable) out.stable_source.push_back(v);
  }
  for (int64_t u = 0; u < n2; ++u) {
    if (col_arg[first][u] < 0) continue;  // never retrieved as a candidate
    bool stable = true;
    for (size_t l = first; l < layers && stable; ++l) {
      stable = col_arg[l][u] == col_arg[first][u] && col_max[l][u] > lambda;
    }
    if (stable) out.stable_target.push_back(u);
  }
  return out;
}

Result<RefinementResult> RefineAlignment(const MultiOrderGcn& gcn,
                                         const AttributedGraph& source,
                                         const AttributedGraph& target,
                                         const GAlignConfig& config,
                                         const RunContext& ctx,
                                         bool materialize,
                                         const AnnPolicy* ann) {
  const std::vector<double> theta = config.EffectiveLayerWeights();
  if (theta.size() != gcn.weights().size() + 1) {
    return Status::InvalidArgument("layer weights do not match GCN depth");
  }
  const int64_t n1 = source.num_nodes();
  const int64_t n2 = target.num_nodes();
  const size_t layers = theta.size();
  // Candidate-pair scan when the policy admits the problem size; the exact
  // scan otherwise (and as the fallback when an iteration's index cannot be
  // built, e.g. under a tight memory budget).
  const bool use_ann = ann != nullptr && ShouldUseAnn(*ann, n1, n2);
  // Layer 0 is the normalized attributes, identical in every iteration. On
  // the dense path, which ends by materializing n1 x n2 anyway, its
  // weighted scores theta_0 H_s^(0) H_t^(0)T are computed once: every exact
  // scan and the final aggregation start from them instead of multiplying
  // layer 0 again.
  Matrix layer0;
  StabilityScanner scanner(theta, config.stability_threshold,
                           materialize ? &layer0 : nullptr);
  // `rows`/`cols` list, per layer, the source and target rows that changed
  // since the previous scan. Candidate-pair scans leave the scanner's
  // statistics behind, so its fallback scans start from every row.
  auto scan_stability = [&](const std::vector<Matrix>& hs,
                            const std::vector<Matrix>& ht,
                            const std::vector<std::vector<int64_t>>& rows,
                            const std::vector<std::vector<int64_t>>& cols) {
    if (use_ann) {
      auto approx = ScanStabilityCandidates(
          hs, ht, theta, config.stability_threshold, *ann, ctx);
      if (approx.ok()) return approx.MoveValueOrDie();
      scanner.Rescan(hs, ht, EveryRow(hs), EveryRow(ht));
    } else {
      scanner.Rescan(hs, ht, rows, cols);
    }
    return scanner.Result();
  };

  std::vector<double> alpha_s(n1, 1.0);
  std::vector<double> alpha_t(n2, 1.0);

  // The paper's AGG_w weights node t by alpha(t) * deg(t)^{-1/2}. Written
  // as D_q = D̂ Q (Eq. 15) that requires Q(v, v) = alpha(v)^{-2}: the
  // propagation entry becomes (deg alpha^{-2})^{-1/2} = alpha * g. (Taking
  // Q = diag(alpha) literally would dampen stable nodes instead of
  // amplifying them.)
  auto influence_to_q = [](const std::vector<double>& alpha) {
    std::vector<double> q(alpha.size());
    for (size_t i = 0; i < alpha.size(); ++i) q[i] = 1.0 / (alpha[i] * alpha[i]);
    return q;
  };

  std::vector<Matrix> hs, ht;
  {
    auto ls = source.NormalizedAdjacency(influence_to_q(alpha_s));
    GALIGN_RETURN_NOT_OK(ls.status());
    auto lt = target.NormalizedAdjacency(influence_to_q(alpha_t));
    GALIGN_RETURN_NOT_OK(lt.status());
    hs = gcn.ForwardInference(ls.ValueOrDie(), source.attributes());
    ht = gcn.ForwardInference(lt.ValueOrDie(), target.attributes());
  }
  if (materialize) layer0 = LayerZeroScores(hs, ht, theta);
  // Embedding rows keep their bits until re-embedded, so finiteness is
  // checked in full once and then on the re-embedded rows only.
  bool finite = true;
  for (const Matrix& h : hs) finite &= h.AllFinite();
  for (const Matrix& h : ht) finite &= h.AllFinite();

  // Eq. 15 after the influence factors of `changed` moved: re-embeds the
  // rows they can reach and returns them per layer (layer 0 never
  // changes).
  auto reembed = [&](const AttributedGraph& g,
                     const std::vector<double>& alpha,
                     const std::vector<int64_t>& changed,
                     std::vector<Matrix>* h)
      -> Result<std::vector<std::vector<int64_t>>> {
    std::vector<std::vector<int64_t>> rows =
        ReachedRows(g.adjacency(), changed, gcn.num_layers());
    if (!rows.back().empty()) {
      auto lap = g.NormalizedAdjacency(influence_to_q(alpha));
      GALIGN_RETURN_NOT_OK(lap.status());
      gcn.UpdateInferenceRows(lap.ValueOrDie(), rows, h);
      finite &= RowsFinite(*h, rows);
    }
    rows.insert(rows.begin(), std::vector<int64_t>());
    return rows;
  };

  RefinementResult result;
  StabilityScan scan =
      scan_stability(hs, ht, EveryRow(hs), EveryRow(ht));
  result.best_score = scan.aggregate_score;
  result.best_iteration = 0;
  result.score_history.push_back(scan.aggregate_score);
  std::vector<Matrix> best_hs = hs, best_ht = ht;

  result.report.converged = config.refinement_tolerance <= 0.0;
  for (int iter = 1; iter <= config.refinement_iterations; ++iter) {
    if (ctx.ShouldStop()) {
      // Deadline/cancellation: the best iterate so far is already tracked
      // in best_hs/best_ht — degrade to it rather than erroring out.
      result.report.degraded = true;
      result.report.converged = false;
      break;
    }
    // Eq. 14: amplify the influence of the nodes found stable.
    for (int64_t v : scan.stable_source) {
      alpha_s[v] *= config.accumulation_factor;
    }
    for (int64_t u : scan.stable_target) {
      alpha_t[u] *= config.accumulation_factor;
    }
    // Eq. 15: re-embed under the influence-scaled propagation matrix.
    auto rows_s = reembed(source, alpha_s, scan.stable_source, &hs);
    GALIGN_RETURN_NOT_OK(rows_s.status());
    auto rows_t = reembed(target, alpha_t, scan.stable_target, &ht);
    GALIGN_RETURN_NOT_OK(rows_t.status());
    // Influence factors compound geometrically (beta^iter); on large stable
    // sets the propagation entries can overflow. Detect it here and fall
    // back to the best finite iterate instead of emitting NaN embeddings.
    if (!finite) {
      result.report.degraded = true;
      result.report.converged = false;
      GALIGN_LOG(Warning)
          << "RefineAlignment: non-finite embeddings at iteration " << iter
          << " (influence overflow); degrading to best iterate "
          << result.best_iteration;
      break;
    }
    scan = scan_stability(hs, ht, rows_s.ValueOrDie(), rows_t.ValueOrDie());
    result.score_history.push_back(scan.aggregate_score);
    const double prev = result.score_history[result.score_history.size() - 2];
    const double improvement =
        std::fabs(scan.aggregate_score - prev) /
        std::max(1.0, std::fabs(prev));
    result.report.iterations = iter;
    result.report.residual = improvement;
    if (scan.aggregate_score > result.best_score) {
      result.best_score = scan.aggregate_score;
      result.best_iteration = iter;
      best_hs = hs;
      best_ht = ht;
    }
    if (config.refinement_tolerance > 0.0 &&
        improvement < config.refinement_tolerance) {
      result.report.converged = true;
      break;
    }
  }

  if (materialize) {
    result.alignment = AddLayerScores(std::move(layer0), best_hs, best_ht,
                                      theta, /*first=*/1, /*last=*/layers);
  }
  result.source_embeddings = std::move(best_hs);
  result.target_embeddings = std::move(best_ht);
  return result;
}

}  // namespace galign
