// Dense row-major matrix of doubles. This is the workhorse value type of the
// library: GCN activations, alignment matrices, and embeddings are all
// Matrix instances. Heavy kernels live in la/ops.h.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "common/rng.h"
#include "common/status.h"

namespace galign {

/// \brief Dense row-major matrix of double.
///
/// Shapes are (rows, cols) with 64-bit extents. Element access is
/// bounds-unchecked in release builds (operator()) — use At() for checked
/// access. Copy is deep; move is O(1).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(int64_t rows, int64_t cols, double fill = 0.0);
  /// Builds from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// \brief Fallible construction (DESIGN.md §9): validates extents,
  /// optionally pre-admits the allocation against `budget`, and converts
  /// std::bad_alloc into Status::ResourceExhausted instead of killing the
  /// process. Use this for size-dependent allocations (anything O(n1*n2));
  /// the throwing constructor remains for shapes bounded by configuration.
  [[nodiscard]] static Result<Matrix> TryCreate(int64_t rows, int64_t cols,
                                  double fill = 0.0,
                                  MemoryBudget* budget = nullptr);

  /// Identity matrix of size n.
  static Matrix Identity(int64_t n);
  /// Every entry drawn i.i.d. uniform in [lo, hi).
  static Matrix Uniform(int64_t rows, int64_t cols, Rng* rng, double lo = 0.0,
                        double hi = 1.0);
  /// Every entry drawn i.i.d. N(0, stddev^2).
  static Matrix Gaussian(int64_t rows, int64_t cols, Rng* rng,
                         double stddev = 1.0);
  /// Xavier/Glorot uniform initialization for a (fan_in x fan_out) weight.
  static Matrix Xavier(int64_t fan_in, int64_t fan_out, Rng* rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_data(int64_t r) { return data_.data() + r * cols_; }
  const double* row_data(int64_t r) const { return data_.data() + r * cols_; }

  double& operator()(int64_t r, int64_t c) { return data_[r * cols_ + c]; }
  double operator()(int64_t r, int64_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access.
  [[nodiscard]] Result<double> At(int64_t r, int64_t c) const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Copies row r into a new 1 x cols matrix.
  Matrix Row(int64_t r) const;
  /// Copies column c into a new rows x 1 matrix.
  Matrix Col(int64_t c) const;
  /// Copies the sub-block [r0, r0+nrows) x [c0, c0+ncols).
  Matrix Block(int64_t r0, int64_t c0, int64_t nrows, int64_t ncols) const;

  /// Reshapes to rows x cols without preserving contents. Reuses the
  /// existing allocation when it is large enough, so kernels writing
  /// through `*Into(..., Matrix* out)` out-parameters avoid per-call
  /// allocation churn. Entries are unspecified after the call unless the
  /// caller overwrites them: new storage is neither zero-filled nor copied
  /// from the old allocation.
  void Resize(int64_t rows, int64_t cols);

  /// Sets all entries to v, on the thread pool.
  void Fill(double v);
  /// In-place element-wise scale, on the thread pool.
  void Scale(double v);
  /// In-place element-wise addition; shapes must match.
  void Add(const Matrix& other);
  /// this += alpha * other, on the thread pool.
  void Axpy(double alpha, const Matrix& other);

  /// Sum of all entries.
  double Sum() const;
  /// Frobenius norm.
  double FrobeniusNorm() const;
  /// Squared Frobenius norm.
  double SquaredNorm() const;
  /// Largest absolute entry.
  double MaxAbs() const;
  /// Euclidean norm of row r.
  double RowNorm(int64_t r) const;

  /// True iff every entry is finite. Scans on the thread pool.
  bool AllFinite() const;

  /// Max |a - b| over entries; matrices must be the same shape.
  static double MaxAbsDiff(const Matrix& a, const Matrix& b);

  /// Normalizes each row to unit L2 norm (rows with ~zero norm are left).
  void NormalizeRows(double eps = 1e-12);

  /// Multi-line human-readable rendering (small matrices only).
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

 private:
  // Tracked storage: every allocate/deallocate of Matrix payload reports to
  // the process-wide MemoryTracker gauge (DESIGN.md §9). Growing it
  // default-initializes the new entries, which for double writes nothing,
  // so Resize costs no memset; constructors that pass a fill value still
  // write it.
  template <typename T>
  struct DefaultInitAllocator : TrackingAllocator<T> {
    template <typename U>
    struct rebind {
      using other = DefaultInitAllocator<U>;
    };
    using TrackingAllocator<T>::TrackingAllocator;
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  int64_t rows_;
  int64_t cols_;
  std::vector<double, DefaultInitAllocator<double>> data_;
};

}  // namespace galign
