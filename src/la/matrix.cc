#include "la/matrix.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <new>
#include <sstream>
#include <stdexcept>

#include "common/logging.h"
#include "common/parallel.h"

namespace galign {

Matrix::Matrix(int64_t rows, int64_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  GALIGN_DCHECK(rows >= 0 && cols >= 0);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<int64_t>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<int64_t>(rows.begin()->size());
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    GALIGN_DCHECK(static_cast<int64_t>(r.size()) == cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Result<Matrix> Matrix::TryCreate(int64_t rows, int64_t cols, double fill,
                                 MemoryBudget* budget) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument(
        "Matrix::TryCreate: negative extent " + std::to_string(rows) + "x" +
        std::to_string(cols));
  }
  const uint64_t bytes = DenseBytes(rows, cols);
  if (bytes == MemoryBudget::kUnlimited) {
    return Status::ResourceExhausted(
        "Matrix::TryCreate: " + std::to_string(rows) + "x" +
        std::to_string(cols) + " overflows the addressable size");
  }
  if (budget != nullptr) {
    GALIGN_RETURN_NOT_OK(budget->Admit(
        bytes, std::to_string(rows) + "x" + std::to_string(cols) + " matrix"));
  }
  try {
    return Matrix(rows, cols, fill);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "Matrix::TryCreate: allocation of " + std::to_string(rows) + "x" +
        std::to_string(cols) + " (" + std::to_string(bytes) +
        " bytes) failed");
  } catch (const std::length_error&) {
    return Status::ResourceExhausted(
        "Matrix::TryCreate: " + std::to_string(rows) + "x" +
        std::to_string(cols) + " exceeds the allocator's maximum size");
  }
}

Matrix Matrix::Identity(int64_t n) {
  Matrix m(n, n);
  for (int64_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Uniform(int64_t rows, int64_t cols, Rng* rng, double lo,
                       double hi) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng->Uniform(lo, hi);
  return m;
}

Matrix Matrix::Gaussian(int64_t rows, int64_t cols, Rng* rng, double stddev) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng->Normal(0.0, stddev);
  return m;
}

Matrix Matrix::Xavier(int64_t fan_in, int64_t fan_out, Rng* rng) {
  double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  return Uniform(fan_in, fan_out, rng, -limit, limit);
}

void Matrix::Resize(int64_t rows, int64_t cols) {
  GALIGN_DCHECK(rows >= 0 && cols >= 0);
  rows_ = rows;
  cols_ = cols;
  const size_t n = static_cast<size_t>(rows * cols);
  // Growing in place would copy the old entries into the new allocation;
  // they are unspecified after the call, so release them first.
  if (n > data_.capacity()) data_ = decltype(data_)();
  data_.resize(n);
}

Result<double> Matrix::At(int64_t r, int64_t c) const {
  if (r < 0 || r >= rows_ || c < 0 || c >= cols_) {
    return Status::OutOfRange("Matrix::At(" + std::to_string(r) + ", " +
                              std::to_string(c) + ") on " +
                              std::to_string(rows_) + "x" +
                              std::to_string(cols_));
  }
  return (*this)(r, c);
}

Matrix Matrix::Row(int64_t r) const {
  Matrix out(1, cols_);
  std::copy(row_data(r), row_data(r) + cols_, out.data());
  return out;
}

Matrix Matrix::Col(int64_t c) const {
  Matrix out(rows_, 1);
  for (int64_t r = 0; r < rows_; ++r) out(r, 0) = (*this)(r, c);
  return out;
}

Matrix Matrix::Block(int64_t r0, int64_t c0, int64_t nrows,
                     int64_t ncols) const {
  GALIGN_DCHECK(r0 >= 0 && c0 >= 0 && r0 + nrows <= rows_ &&
                c0 + ncols <= cols_);
  Matrix out;
  out.Resize(nrows, ncols);
  for (int64_t r = 0; r < nrows; ++r) {
    std::copy(row_data(r0 + r) + c0, row_data(r0 + r) + c0 + ncols,
              out.row_data(r));
  }
  return out;
}

// Fill, Scale and Axpy run on the thread pool: each entry gets one update, so
// the result does not depend on how ParallelFor splits the range (small
// ranges and calls from a busy pool run inline).
void Matrix::Fill(double v) {
  double* y = data_.data();
  ParallelFor(0, size(), [y, v](int64_t i0, int64_t i1) {
    std::fill(y + i0, y + i1, v);
  });
}

void Matrix::Scale(double v) {
  double* y = data_.data();
  ParallelFor(0, size(), [y, v](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) y[i] *= v;
  });
}

void Matrix::Add(const Matrix& other) {
  GALIGN_DCHECK(SameShape(other));
  for (int64_t i = 0; i < size(); ++i) data_[i] += other.data_[i];
}

void Matrix::Axpy(double alpha, const Matrix& other) {
  GALIGN_DCHECK(SameShape(other));
  double* y = data_.data();
  const double* x = other.data_.data();
  ParallelFor(0, size(), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) y[i] += alpha * x[i];
  });
}

double Matrix::Sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double Matrix::SquaredNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

double Matrix::FrobeniusNorm() const { return std::sqrt(SquaredNorm()); }

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::fabs(v));
  return m;
}

double Matrix::RowNorm(int64_t r) const {
  double s = 0.0;
  const double* p = row_data(r);
  for (int64_t c = 0; c < cols_; ++c) s += p[c] * p[c];
  return std::sqrt(s);
}

bool Matrix::AllFinite() const {
  const double* p = data_.data();
  std::atomic<bool> finite{true};
  ParallelFor(0, size(), [p, &finite](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      if (!std::isfinite(p[i])) {
        finite = false;
        return;
      }
    }
  });
  return finite;
}

double Matrix::MaxAbsDiff(const Matrix& a, const Matrix& b) {
  GALIGN_DCHECK(a.SameShape(b));
  double m = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
  }
  return m;
}

void Matrix::NormalizeRows(double eps) {
  for (int64_t r = 0; r < rows_; ++r) {
    double n = RowNorm(r);
    if (n > eps) {
      double inv = 1.0 / n;
      double* p = row_data(r);
      for (int64_t c = 0; c < cols_; ++c) p[c] *= inv;
    }
  }
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::ostringstream os;
  os << "Matrix " << rows_ << "x" << cols_ << "\n";
  int64_t rr = std::min<int64_t>(rows_, max_rows);
  int64_t cc = std::min<int64_t>(cols_, max_cols);
  for (int64_t r = 0; r < rr; ++r) {
    os << "  [";
    for (int64_t c = 0; c < cc; ++c) {
      os << (c ? ", " : "") << (*this)(r, c);
    }
    if (cc < cols_) os << ", ...";
    os << "]\n";
  }
  if (rr < rows_) os << "  ...\n";
  return os.str();
}

}  // namespace galign
