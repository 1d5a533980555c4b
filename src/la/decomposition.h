// Matrix decompositions implemented from scratch: cyclic Jacobi for symmetric
// eigenproblems and a thin SVD built on top of it. Used by REGAL's low-rank
// similarity factorization and by PALE's Procrustes mapping.
//
// Every solver here runs under an explicit iteration + residual budget and
// reports how it exited through a ConvergenceReport (DESIGN.md §7). A solve
// that fails to meet its tolerance within the budget returns the best
// iterate it reached, marked `degraded`, instead of erroring out — callers
// that need strict convergence must check the report.
#pragma once

#include <cstdint>
#include <vector>

#include "common/convergence.h"
#include "common/run_context.h"
#include "common/status.h"
#include "la/matrix.h"

namespace galign {

/// Result of a symmetric eigendecomposition A = V diag(w) V^T.
struct EigenDecomposition {
  std::vector<double> eigenvalues;  // descending order
  Matrix eigenvectors;              // columns correspond to eigenvalues
  /// How the Jacobi sweep exited (iterations = sweeps executed, residual =
  /// final off-diagonal Frobenius mass relative scale).
  ConvergenceReport report;
};

/// \brief Eigendecomposition of a symmetric matrix via cyclic Jacobi
/// rotations.
///
/// Intended for small-to-medium matrices (landmark similarity blocks, the
/// Gram matrix inside ThinSVD). If the off-diagonal mass fails to vanish
/// within max_sweeps, the best-so-far rotation is returned with
/// report.converged == false (Jacobi sweeps are monotone, so the last
/// iterate is the best).
/// All solvers below additionally accept an optional RunContext: when it
/// expires (deadline) or fires (cancellation), the sweep/iteration loop
/// stops at the current best iterate, reported degraded — the same graceful
/// exit as budget exhaustion (DESIGN.md §8).
[[nodiscard]] Result<EigenDecomposition> SymmetricEigen(const Matrix& a,
                                          int max_sweeps = 64,
                                          double tol = 1e-12,
                                          const RunContext* ctx = nullptr);

/// Thin SVD A = U diag(s) V^T with r = min(rows, cols) columns.
struct SVDResult {
  Matrix u;                    // rows x r
  std::vector<double> sigma;   // descending, size r
  Matrix v;                    // cols x r
  /// Propagated from the underlying Gram-matrix eigendecomposition.
  ConvergenceReport report;
};

/// \brief Thin SVD computed from the eigendecomposition of the Gram matrix
/// of the smaller dimension.
[[nodiscard]] Result<SVDResult> ThinSVD(const Matrix& a, int max_sweeps = 64,
                          const RunContext* ctx = nullptr);

/// Moore-Penrose pseudo-inverse (rank-revealing via ThinSVD; singular values
/// below rcond * sigma_max are treated as zero).
[[nodiscard]] Result<Matrix> PseudoInverse(const Matrix& a, double rcond = 1e-10,
                             const RunContext* ctx = nullptr);

/// Top eigenvalue/eigenvector of a symmetric matrix by power iteration.
/// Returns the last Rayleigh-quotient estimate even when the iteration did
/// not meet `tol` within max_iters; pass `report` to observe convergence.
[[nodiscard]] Result<double> PowerIterationTopEigenvalue(const Matrix& a,
                                           int max_iters = 1000,
                                           double tol = 1e-9,
                                           ConvergenceReport* report = nullptr,
                                           const RunContext* ctx = nullptr);

}  // namespace galign
