// Differentiable ops over Tape. Generic building blocks (matmul, tanh,
// sigmoid, bias add, weighted sums) plus fused GAlign losses:
//
//  - ConsistencyLoss computes ||C - H H^T||_F (paper Eq. 7) and its gradient
//    without forming the n x n Gram matrix, using
//      ||C - H H^T||^2 = ||C||^2 - 2 sum_{(i,j) in C} C_ij <H_i, H_j>
//                        + ||H^T H||^2
//    and d/dH ||C - H H^T||^2 = -2 (C + C^T) H + 4 H (H^T H),
//    i.e. O(e d + n d^2) time instead of O(n^2 d).
//
//  - AdaptivityLoss computes sum_v sigma_<(||H(v) - H*(v*)||) (paper Eq. 9),
//    where sigma_< zeroes rows whose distance exceeds the perturbation
//    threshold, with the row-wise closed-form gradient.
//
// Row-wise ops (NormalizeRows, the tanh gradient, the loss terms) run their
// rows on the thread pool. Each row is written by one task with unchanged
// per-row arithmetic, and every scalar reduction is summed serially in row
// order, so values and gradients are bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "autograd/tape.h"
#include "la/sparse.h"

namespace galign {
namespace ag {

/// c = a * b.
Var MatMul(Tape* t, Var a, Var b);

/// c = a * b with a constant left operand that is not copied onto the tape
/// (only db = a^T dc flows back). `a` must outlive the tape's Backward().
Var MatMul(Tape* t, const Matrix* a, Var b);

/// c = a * b with a constant CSR left operand, bit-identical to the dense
/// form above on a.ToDense() (galign::MatMulInto's sparse overload). `a`
/// must outlive the tape's Backward().
Var MatMul(Tape* t, const SparseMatrix* a, Var b);

/// y = sparse * x. `sparse` must outlive the tape's Backward() call.
Var SpMM(Tape* t, const SparseMatrix* sparse, Var x);

/// Element-wise tanh.
Var Tanh(Tape* t, Var x);

/// Element-wise logistic sigmoid.
Var Sigmoid(Tape* t, Var x);

/// Element-wise ReLU (kept for the paper's activation ablation; §IV-A argues
/// tanh is required because ReLU is not sign-preserving).
Var Relu(Tape* t, Var x);

/// Row-wise L2 normalization: y_i = x_i / max(||x_i||, eps). GAlign
/// normalizes every layer's embeddings so layer-wise alignment scores are
/// cosines and the stability threshold lambda is scale-free.
Var NormalizeRows(Tape* t, Var x, double eps = 1e-12);

/// c = a + b (same shape).
Var Add(Tape* t, Var a, Var b);

/// c = a - b (same shape).
Var Sub(Tape* t, Var a, Var b);

/// c = alpha * a.
Var Scale(Tape* t, Var a, double alpha);

/// y = x + broadcast(bias) where bias is 1 x cols.
Var AddBias(Tape* t, Var x, Var bias);

/// Scalar: sum of weighted 1x1 vars. Empty input yields 0.
Var WeightedSum(Tape* t, const std::vector<std::pair<Var, double>>& terms);

/// Scalar: ||a||_F.
Var FrobeniusNorm(Tape* t, Var a);

/// Scalar: mean_ij (pred_ij - target_ij)^2. target is a constant.
Var MSELoss(Tape* t, Var pred, const Matrix& target);

/// Scalar: the fused consistency loss ||C - H H^T||_F (Eq. 7).
/// C must be symmetric-ish (both C and C^T are used) and outlive Backward().
Var ConsistencyLoss(Tape* t, const SparseMatrix* c, Var h);

/// Scalar: the fused adaptivity loss (Eq. 9):
///   sum_v  sigma_<( || a(v) - b(correspondence[v]) || )
/// where sigma_<(x) = x if x < threshold else 0. The correspondence must be
/// one-to-one (a node permutation, as the augmenter produces); it is
/// checked.
Var AdaptivityLoss(Tape* t, Var a, Var b,
                   const std::vector<int64_t>& correspondence,
                   double threshold);

/// Scalar: sum over (v, u) in `pairs` of ||a(v) - b(u)|| — the cross-network
/// anchor loss of the semi-supervised GAlign extension.
Var AnchorLoss(Tape* t, Var a, Var b,
               const std::vector<std::pair<int64_t, int64_t>>& pairs);

}  // namespace ag
}  // namespace galign
