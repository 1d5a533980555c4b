// Compressed sparse row (CSR) matrix. Adjacency matrices and normalized
// Laplacians are stored in this format; SpMM against dense activations is the
// dominant kernel of GCN training (paper §VI-C relies on this sparsity for
// the O(ed) complexity bound).
//
// SpMM parallelism is nnz-balanced: row ranges are chosen so each task owns
// roughly equal stored-entry counts, which keeps power-law graphs (a few
// huge-degree rows, many tiny ones) from serializing on one chunk. The
// transpose needed by TransposedMultiply is built once with a counting sort
// and memoized, so repeated backward passes over the same propagation matrix
// stop redoing O(e) work per call.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/memory_budget.h"
#include "common/status.h"
#include "la/matrix.h"

namespace galign {

/// A (row, col, value) entry used to build sparse matrices.
struct Triplet {
  int64_t row;
  int64_t col;
  double value;
};

/// \brief Immutable CSR sparse matrix of double.
///
/// Construction sorts and coalesces duplicate coordinates (values of
/// duplicates are summed). Structure is fixed after construction; values can
/// be rescaled via ScaleRow/mutable_values for the noise-aware propagation
/// of Eq. 15 (either invalidates the memoized transpose).
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) {}
  SparseMatrix(const SparseMatrix& other);
  SparseMatrix& operator=(const SparseMatrix& other);
  SparseMatrix(SparseMatrix&& other) noexcept;
  SparseMatrix& operator=(SparseMatrix&& other) noexcept;

  /// Builds from triplets; duplicates are summed, explicit zeros dropped.
  static SparseMatrix FromTriplets(int64_t rows, int64_t cols,
                                   std::vector<Triplet> triplets);

  /// \brief Fallible FromTriplets (DESIGN.md §9): validates extents and
  /// triplet coordinates, optionally pre-admits the CSR footprint
  /// (~20 bytes/nnz + 8 bytes/row) against `budget`, and converts
  /// std::bad_alloc into Status::ResourceExhausted.
  [[nodiscard]] static Result<SparseMatrix> TryCreate(int64_t rows, int64_t cols,
                                        std::vector<Triplet> triplets,
                                        MemoryBudget* budget = nullptr);

  /// CSR copy of the non-zero entries of `dense` (NaN counts as non-zero).
  static SparseMatrix FromDense(const Matrix& dense);

  /// Sparse identity.
  static SparseMatrix Identity(int64_t n);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int64_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& mutable_values() {
    InvalidateTransposeCache();
    return values_;
  }

  /// Number of stored entries in row r.
  int64_t RowNnz(int64_t r) const { return row_ptr_[r + 1] - row_ptr_[r]; }

  /// Value at (r, c); zero if not stored. O(log nnz(row)).
  double At(int64_t r, int64_t c) const;

  /// Sum of stored values in row r.
  double RowSum(int64_t r) const;

  /// Dense copy (small matrices / tests only).
  Matrix ToDense() const;

  /// Transposed copy, built in O(e) with a counting sort.
  SparseMatrix Transposed() const;

  /// Memoized transpose, built on first use and shared by subsequent calls
  /// (TransposedMultiply uses this). Invalidated by ScaleRow /
  /// mutable_values. Thread-safe.
  std::shared_ptr<const SparseMatrix> TransposedCached() const;

  /// Row partition for `chunks` tasks balanced by stored-entry count: chunk
  /// c covers rows [b[c], b[c+1]) of the returned b (chunks + 1 entries,
  /// clamped to at least one chunk and at most one per row). It depends on
  /// the structure only, so one hub row of a power-law graph cannot
  /// serialize a row-parallel kernel, and results do not depend on
  /// scheduling.
  std::vector<int64_t> RowBounds(int64_t chunks) const;

  /// Multiplies all stored values in row r by s.
  void ScaleRow(int64_t r, double s);

  /// The listed rows, in list order, as a rows.size() x cols() matrix. Each
  /// row keeps its stored entries in their order, so a product's row has
  /// the bits of the same row of this matrix's product.
  SparseMatrix RowSubset(const std::vector<int64_t>& rows) const;

  /// out = this * dense. Parallel over nnz-balanced row ranges.
  /// Shapes: (r x c) * (c x d).
  Matrix Multiply(const Matrix& dense) const;

  /// out = this * dense (out += when accumulate). `out` must not alias
  /// `dense`; when accumulating it must already have shape (rows x d).
  void MultiplyInto(const Matrix& dense, Matrix* out,
                    bool accumulate = false) const;

  /// out = this^T * dense, via the memoized transpose.
  Matrix TransposedMultiply(const Matrix& dense) const;

  /// out = this^T * dense (out += when accumulate).
  void TransposedMultiplyInto(const Matrix& dense, Matrix* out,
                              bool accumulate = false) const;

  /// Returns D^{-1/2} (this + I) D^{-1/2} where D is the degree (row-sum)
  /// matrix of (this + I) — the normalized Laplacian-style propagation
  /// matrix C of GCN (paper Eq. 1). Requires a square matrix.
  [[nodiscard]] Result<SparseMatrix> NormalizedWithSelfLoops() const;

  /// Like NormalizedWithSelfLoops but with per-node influence factors alpha:
  /// C_q = Dq^{-1/2} Â Dq^{-1/2}, Dq = D̂ Q, Q = diag(alpha) (paper Eq. 15).
  [[nodiscard]] Result<SparseMatrix> NormalizedWithInfluence(
      const std::vector<double>& alpha) const;

 private:
  void InvalidateTransposeCache();

  int64_t rows_;
  int64_t cols_;
  std::vector<int64_t> row_ptr_;   // size rows + 1
  std::vector<int64_t> col_idx_;   // size nnz
  std::vector<double> values_;     // size nnz

  // Lazily built transpose shared across TransposedMultiply calls. Guarded
  // by transpose_mu_; deliberately not propagated by copy/move (rebuilt on
  // demand).
  mutable std::mutex transpose_mu_;
  mutable std::shared_ptr<const SparseMatrix> transpose_cache_;  // galign: guarded_by(transpose_mu_)
};

}  // namespace galign
