#include "la/sparse.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <stdexcept>

#include "common/logging.h"
#include "common/parallel.h"

namespace galign {

SparseMatrix::SparseMatrix(const SparseMatrix& other)
    : rows_(other.rows_),
      cols_(other.cols_),
      row_ptr_(other.row_ptr_),
      col_idx_(other.col_idx_),
      values_(other.values_) {}

SparseMatrix& SparseMatrix::operator=(const SparseMatrix& other) {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = other.row_ptr_;
  col_idx_ = other.col_idx_;
  values_ = other.values_;
  InvalidateTransposeCache();
  return *this;
}

SparseMatrix::SparseMatrix(SparseMatrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      row_ptr_(std::move(other.row_ptr_)),
      col_idx_(std::move(other.col_idx_)),
      values_(std::move(other.values_)) {
  other.rows_ = 0;
  other.cols_ = 0;
}

SparseMatrix& SparseMatrix::operator=(SparseMatrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = std::move(other.row_ptr_);
  col_idx_ = std::move(other.col_idx_);
  values_ = std::move(other.values_);
  other.rows_ = 0;
  other.cols_ = 0;
  InvalidateTransposeCache();
  return *this;
}

void SparseMatrix::InvalidateTransposeCache() {
  std::lock_guard<std::mutex> lock(transpose_mu_);
  transpose_cache_.reset();
}

SparseMatrix SparseMatrix::FromTriplets(int64_t rows, int64_t cols,
                                        std::vector<Triplet> triplets) {
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  size_t i = 0;
  while (i < triplets.size()) {
    int64_t r = triplets[i].row;
    int64_t c = triplets[i].col;
    GALIGN_DCHECK(r >= 0 && r < rows && c >= 0 && c < cols);
    double v = 0.0;
    while (i < triplets.size() && triplets[i].row == r &&
           triplets[i].col == c) {
      v += triplets[i].value;
      ++i;
    }
    if (v != 0.0) {
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
      m.row_ptr_[r + 1]++;
    }
  }
  for (int64_t r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  return m;
}

Result<SparseMatrix> SparseMatrix::TryCreate(int64_t rows, int64_t cols,
                                             std::vector<Triplet> triplets,
                                             MemoryBudget* budget) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument(
        "SparseMatrix::TryCreate: negative extent " + std::to_string(rows) +
        "x" + std::to_string(cols));
  }
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      return Status::InvalidArgument(
          "SparseMatrix::TryCreate: triplet (" + std::to_string(t.row) +
          ", " + std::to_string(t.col) + ") outside " + std::to_string(rows) +
          "x" + std::to_string(cols));
    }
  }
  // CSR footprint upper bound: col_idx (8B) + values (8B) per entry, the
  // triplet sort scratch (~24B per entry, transient), row_ptr 8B per row.
  const uint64_t nnz = static_cast<uint64_t>(triplets.size());
  const uint64_t bytes = nnz * (sizeof(int64_t) + sizeof(double)) +
                         static_cast<uint64_t>(rows + 1) * sizeof(int64_t);
  if (budget != nullptr) {
    GALIGN_RETURN_NOT_OK(budget->Admit(
        bytes, std::to_string(rows) + "x" + std::to_string(cols) +
                   " sparse matrix (" + std::to_string(nnz) + " nnz)"));
  }
  try {
    return FromTriplets(rows, cols, std::move(triplets));
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "SparseMatrix::TryCreate: allocation of " + std::to_string(nnz) +
        " entries failed");
  } catch (const std::length_error&) {
    return Status::ResourceExhausted(
        "SparseMatrix::TryCreate: entry count exceeds the allocator's "
        "maximum size");
  }
}

SparseMatrix SparseMatrix::FromDense(const Matrix& dense) {
  SparseMatrix m;
  m.rows_ = dense.rows();
  m.cols_ = dense.cols();
  m.row_ptr_.assign(m.rows_ + 1, 0);
  for (int64_t r = 0; r < m.rows_; ++r) {
    const double* row = dense.row_data(r);
    for (int64_t c = 0; c < m.cols_; ++c) {
      if (row[c] != 0.0) {
        m.col_idx_.push_back(c);
        m.values_.push_back(row[c]);
      }
    }
    m.row_ptr_[r + 1] = m.nnz();
  }
  return m;
}

SparseMatrix SparseMatrix::RowSubset(const std::vector<int64_t>& rows) const {
  SparseMatrix m;
  m.rows_ = static_cast<int64_t>(rows.size());
  m.cols_ = cols_;
  m.row_ptr_.reserve(rows.size() + 1);
  m.row_ptr_.push_back(0);
  int64_t nnz = 0;
  for (const int64_t r : rows) nnz += row_ptr_[r + 1] - row_ptr_[r];
  m.col_idx_.reserve(static_cast<size_t>(nnz));
  m.values_.reserve(static_cast<size_t>(nnz));
  for (const int64_t r : rows) {
    GALIGN_DCHECK(r >= 0 && r < rows_);
    m.col_idx_.insert(m.col_idx_.end(), col_idx_.begin() + row_ptr_[r],
                      col_idx_.begin() + row_ptr_[r + 1]);
    m.values_.insert(m.values_.end(), values_.begin() + row_ptr_[r],
                     values_.begin() + row_ptr_[r + 1]);
    m.row_ptr_.push_back(m.nnz());
  }
  return m;
}

SparseMatrix SparseMatrix::Identity(int64_t n) {
  std::vector<Triplet> t;
  t.reserve(n);
  for (int64_t i = 0; i < n; ++i) t.push_back({i, i, 1.0});
  return FromTriplets(n, n, std::move(t));
}

double SparseMatrix::At(int64_t r, int64_t c) const {
  auto begin = col_idx_.begin() + row_ptr_[r];
  auto end = col_idx_.begin() + row_ptr_[r + 1];
  auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[it - col_idx_.begin()];
}

double SparseMatrix::RowSum(int64_t r) const {
  double s = 0.0;
  for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) s += values_[i];
  return s;
}

Matrix SparseMatrix::ToDense() const {
  Matrix d(rows_, cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      d(r, col_idx_[i]) = values_[i];
    }
  }
  return d;
}

SparseMatrix SparseMatrix::Transposed() const {
  // Counting sort by destination row — O(e), no triplet sort. Source rows
  // are visited in ascending order, so each transposed row stays sorted.
  SparseMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(cols_ + 1, 0);
  for (int64_t c : col_idx_) t.row_ptr_[c + 1]++;
  for (int64_t r = 0; r < cols_; ++r) t.row_ptr_[r + 1] += t.row_ptr_[r];
  t.col_idx_.resize(nnz());
  t.values_.resize(nnz());
  std::vector<int64_t> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      const int64_t pos = cursor[col_idx_[i]]++;
      t.col_idx_[pos] = r;
      t.values_[pos] = values_[i];
    }
  }
  return t;
}

std::shared_ptr<const SparseMatrix> SparseMatrix::TransposedCached() const {
  std::lock_guard<std::mutex> lock(transpose_mu_);
  if (!transpose_cache_) {
    transpose_cache_ = std::make_shared<const SparseMatrix>(Transposed());
  }
  return transpose_cache_;
}

std::vector<int64_t> SparseMatrix::RowBounds(int64_t chunks) const {
  chunks = std::max<int64_t>(1, std::min<int64_t>(rows_, chunks));
  std::vector<int64_t> bounds(chunks + 1, rows_);
  bounds[0] = 0;
  for (int64_t c = 1; c < chunks; ++c) {
    const int64_t target = nnz() * c / chunks;
    const auto it =
        std::lower_bound(row_ptr_.begin(), row_ptr_.end() - 1, target);
    bounds[c] = std::max<int64_t>(it - row_ptr_.begin(), bounds[c - 1]);
  }
  return bounds;
}

void SparseMatrix::ScaleRow(int64_t r, double s) {
  InvalidateTransposeCache();
  for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) values_[i] *= s;
}

Matrix SparseMatrix::Multiply(const Matrix& dense) const {
  Matrix out;
  MultiplyInto(dense, &out);
  return out;
}

void SparseMatrix::MultiplyInto(const Matrix& dense, Matrix* out,
                                bool accumulate) const {
  GALIGN_DCHECK(cols_ == dense.rows());
  GALIGN_DCHECK(out != &dense);
  const int64_t d = dense.cols();
  if (accumulate) {
    GALIGN_DCHECK(out->rows() == rows_ && out->cols() == d);
  } else {
    out->Resize(rows_, d);
  }
  if (rows_ == 0 || d == 0) return;
  // Each output row is written by exactly one task in stored order, so
  // results are bitwise deterministic.
  const std::vector<int64_t> bounds = RowBounds(ParallelismLevel() * 4);
  ParallelFor(
      0, static_cast<int64_t>(bounds.size()) - 1,
      [&](int64_t c0, int64_t c1) {
        for (int64_t chunk = c0; chunk < c1; ++chunk) {
          for (int64_t r = bounds[chunk]; r < bounds[chunk + 1]; ++r) {
            double* out_row = out->row_data(r);
            if (!accumulate) std::fill(out_row, out_row + d, 0.0);
            int64_t i = row_ptr_[r];
            const int64_t e = row_ptr_[r + 1];
            // 4-way unroll: one pass over out_row per four stored entries
            // instead of one per entry (SpMM is bandwidth-bound on the
            // repeated output-row traffic, not on flops).
            for (; i + 4 <= e; i += 4) {
              const double v0 = values_[i], v1 = values_[i + 1];
              const double v2 = values_[i + 2], v3 = values_[i + 3];
              const double* r0 = dense.row_data(col_idx_[i]);
              const double* r1 = dense.row_data(col_idx_[i + 1]);
              const double* r2 = dense.row_data(col_idx_[i + 2]);
              const double* r3 = dense.row_data(col_idx_[i + 3]);
              for (int64_t c = 0; c < d; ++c) {
                out_row[c] +=
                    v0 * r0[c] + v1 * r1[c] + v2 * r2[c] + v3 * r3[c];
              }
            }
            for (; i < e; ++i) {
              const double v = values_[i];
              const double* in_row = dense.row_data(col_idx_[i]);
              for (int64_t c = 0; c < d; ++c) out_row[c] += v * in_row[c];
            }
          }
        }
      },
      /*min_chunk=*/1);
}

Matrix SparseMatrix::TransposedMultiply(const Matrix& dense) const {
  Matrix out;
  TransposedMultiplyInto(dense, &out);
  return out;
}

void SparseMatrix::TransposedMultiplyInto(const Matrix& dense, Matrix* out,
                                          bool accumulate) const {
  GALIGN_DCHECK(rows_ == dense.rows());
  TransposedCached()->MultiplyInto(dense, out, accumulate);
}

Result<SparseMatrix> SparseMatrix::NormalizedWithSelfLoops() const {
  const int64_t n = rows_;
  std::vector<double> ones(n, 1.0);
  return NormalizedWithInfluence(ones);
}

Result<SparseMatrix> SparseMatrix::NormalizedWithInfluence(
    const std::vector<double>& alpha) const {
  if (rows_ != cols_) {
    return Status::InvalidArgument(
        "normalization requires a square matrix, got " +
        std::to_string(rows_) + "x" + std::to_string(cols_));
  }
  if (static_cast<int64_t>(alpha.size()) != rows_) {
    return Status::InvalidArgument("influence vector size mismatch");
  }
  const int64_t n = rows_;
  // Â = A + I. D̂ = rowsum(Â). Dq = D̂ * Q with Q = diag(alpha).
  std::vector<double> inv_sqrt(n);
  for (int64_t r = 0; r < n; ++r) {
    double deg = RowSum(r) + 1.0;  // self loop
    double dq = deg * alpha[r];
    if (dq <= 0.0) {
      return Status::InvalidArgument("non-positive scaled degree at node " +
                                     std::to_string(r));
    }
    inv_sqrt[r] = 1.0 / std::sqrt(dq);
  }
  std::vector<Triplet> t;
  t.reserve(nnz() + n);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      int64_t c = col_idx_[i];
      t.push_back({r, c, values_[i] * inv_sqrt[r] * inv_sqrt[c]});
    }
    t.push_back({r, r, inv_sqrt[r] * inv_sqrt[r]});
  }
  return SparseMatrix::FromTriplets(n, n, std::move(t));
}

}  // namespace galign
