// Dense kernels: GEMM variants, element-wise maps, row-wise reductions and
// top-k selection.
//
// The GEMM family (MatMul / MatMulTransposedB / MatMulTransposedA) is backed
// by a single cache-blocked, register-tiled kernel: operands are packed into
// contiguous MC x KC / KC x NC panels held in thread-local workspaces and
// consumed by a micro-kernel (8x24 vector-typed under AVX-512, 4x8
// auto-vectorized on other targets). Work is decomposed over a 2D grid of
// output tiles so the n x n alignment product S = H_s H_t^T (Eq. 11) scales
// past row-parallelism. Every output tile is produced by exactly one task
// with a fixed accumulation order, so results are bitwise deterministic
// across runs regardless of thread scheduling.
//
// Each kernel has a `*Into(..., Matrix* out)` form that writes into a
// caller-owned matrix (reusing its allocation when the shape matches) and
// optionally accumulates (`out += ...`) — the autograd backward pass uses
// the accumulate forms to add straight into gradient buffers. The
// allocating forms are thin wrappers. Naive reference kernels are retained
// in `reference::` for equivalence tests and before/after benchmarks.
//
// MatMulInto and MatMulTransposedAInto also take a CSR left operand. They
// run the blocked GEMM's operation order over the stored entries only, so
// for a finite dense operand they equal the dense kernels on A.ToDense() bit
// for bit while skipping the zero products (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "la/matrix.h"
#include "la/sparse.h"

namespace galign {

/// C = A * B. Shapes (m x k) * (k x n).
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A * B^T — the layer-wise alignment kernel S = H_s H_t^T (Eq. 11).
Matrix MatMulTransposedB(const Matrix& a, const Matrix& b);

/// C = A^T * B.
Matrix MatMulTransposedA(const Matrix& a, const Matrix& b);

/// out = A * B, or out += A * B when accumulate is true. `out` must not
/// alias an input; when accumulating it must already have shape (m x n).
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out,
                bool accumulate = false);

/// out = A * B^T (out += when accumulate). Same aliasing/shape contract.
void MatMulTransposedBInto(const Matrix& a, const Matrix& b, Matrix* out,
                           bool accumulate = false);

/// out = A^T * B (out += when accumulate). Same aliasing/shape contract.
void MatMulTransposedAInto(const Matrix& a, const Matrix& b, Matrix* out,
                           bool accumulate = false);

/// out = A[r0 : r0 + rows) * B^T: MatMulTransposedBInto over a row range of
/// A, read in place, with the bits of multiplying a.Block(r0, 0, rows,
/// a.cols()). Same aliasing contract.
void MatMulTransposedBRowsInto(const Matrix& a, int64_t r0, int64_t rows,
                               const Matrix& b, Matrix* out);

/// out = A * B for a CSR A (out += when accumulate), bit-identical to
/// MatMulInto(a.ToDense(), b, out, accumulate) apart from the sign of a zero
/// produced by underflow. When b holds NaN or Inf it runs that dense kernel,
/// so non-finite values spread exactly as there (0 * Inf is NaN). Same
/// aliasing/shape contract as the dense form.
void MatMulInto(const SparseMatrix& a, const Matrix& b, Matrix* out,
                bool accumulate = false);

/// out = A^T * B for a CSR A (out += when accumulate), through
/// a.TransposedCached(); bit-identical to MatMulTransposedAInto(a.ToDense(),
/// b, out, accumulate) under the same terms as the form above.
void MatMulTransposedAInto(const SparseMatrix& a, const Matrix& b, Matrix* out,
                           bool accumulate = false);

/// Out-of-place transpose.
Matrix Transpose(const Matrix& a);

/// out = A^T, cache-blocked and parallel over column blocks. `out` must not
/// alias `a`.
void TransposeInto(const Matrix& a, Matrix* out);

/// C = A + B (shapes must match).
Matrix Add(const Matrix& a, const Matrix& b);

/// C = A - B (shapes must match).
Matrix Sub(const Matrix& a, const Matrix& b);

/// C = alpha * A.
Matrix Scale(const Matrix& a, double alpha);

/// Element-wise product (Hadamard).
Matrix Hadamard(const Matrix& a, const Matrix& b);

/// Applies f to every entry.
Matrix Map(const Matrix& a, const std::function<double(double)>& f);

/// tanh applied element-wise (the paper's GCN activation, §IV-A).
Matrix Tanh(const Matrix& a);

/// out = tanh(A) element-wise; out == &a computes in place.
void TanhInto(const Matrix& a, Matrix* out);

/// <A, B> = sum_ij A_ij B_ij.
double Dot(const Matrix& a, const Matrix& b);

/// Squared Euclidean distance between row i of a and row j of b.
double RowSquaredDistance(const Matrix& a, int64_t i, const Matrix& b,
                          int64_t j);

/// Cosine similarity between row i of a and row j of b (0 if a row is ~0).
double RowCosine(const Matrix& a, int64_t i, const Matrix& b, int64_t j);

/// Index of the maximum entry in row r.
int64_t ArgMaxRow(const Matrix& m, int64_t r);

/// Maximum entry in row r.
double MaxRow(const Matrix& m, int64_t r);

/// Indices of the q largest entries of row r, in descending value order.
/// Ties break toward the smaller column index. Uses a bounded heap —
/// O(n log k) time and O(k) extra space per call.
std::vector<int64_t> TopKRow(const Matrix& m, int64_t r, int64_t k);

/// \brief Canonical bounded-heap top-k selection over a contiguous value
/// array — THE tie-breaking contract of every ranking path in the repo.
///
/// Selects the k largest of values[0..n) into idx_out/score_out (each with
/// room for k entries), descending by value with ties broken toward the
/// smaller index ("lowest index wins"). Slots past the available entries
/// are padded with index -1 / score -infinity. TopKRow, the chunked top-k
/// scan (ChunkedTopK / TopKFromDense), and the ANN re-ranking kernels all
/// route through this one function so exact-vs-approximate recall
/// comparisons are well-defined regardless of block size or thread count.
void TopKSelect(const double* values, int64_t n, int64_t k, int64_t* idx_out,
                double* score_out);

/// Rank (1-based) of column `col` when row r is sorted descending. Ties use
/// the mid-rank (expected rank under random tie-breaking), so a degenerate
/// constant row ranks every column at ~(n+1)/2 instead of 1.
int64_t RankInRow(const Matrix& m, int64_t r, int64_t col);

/// Concatenates matrices horizontally ([A | B | ...]); equal row counts.
Matrix ConcatCols(const std::vector<const Matrix*>& parts);

/// Row-wise softmax.
Matrix SoftmaxRows(const Matrix& a);

/// out = row-wise softmax of A, parallel over rows; out == &a is allowed.
void SoftmaxRowsInto(const Matrix& a, Matrix* out);

namespace reference {

/// Naive triple-loop GEMM kernels kept as the ground truth for the blocked
/// implementations. Serial, allocation-per-call; use only in tests and
/// before/after benchmarks.
Matrix MatMul(const Matrix& a, const Matrix& b);
Matrix MatMulTransposedB(const Matrix& a, const Matrix& b);
Matrix MatMulTransposedA(const Matrix& a, const Matrix& b);

}  // namespace reference

}  // namespace galign
