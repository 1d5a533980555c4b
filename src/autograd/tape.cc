#include "autograd/tape.h"

#include "common/logging.h"
#include "common/parallel.h"

namespace galign {

namespace {

// Shapes `g` to rows x cols and zeroes it on the pool: a gradient buffer
// that kernels accumulate into.
void ZeroGrad(Matrix* g, int64_t rows, int64_t cols) {
  g->Resize(rows, cols);
  g->Fill(0.0);
}

// True when any entry differs from zero. NaN compares unequal, so a NaN
// gradient counts as non-zero and keeps flowing to its parents. Exits at the
// first non-zero entry, which for a live gradient is almost always the first.
bool AnyNonZero(const Matrix& m) {
  const double* p = m.data();
  for (int64_t i = 0; i < m.size(); ++i) {
    if (p[i] != 0.0) return true;
  }
  return false;
}

}  // namespace

Var Tape::Leaf(Matrix value, bool requires_grad) {
  Node n;
  n.value = std::move(value);
  n.requires_grad = requires_grad;
  nodes_.push_back(std::move(n));
  return Var{static_cast<int32_t>(nodes_.size() - 1)};
}

Var Tape::Emit(Matrix value, std::vector<Var> parents,
               std::function<void(Tape*, Var)> backward, bool requires_grad) {
  Node n;
  n.value = std::move(value);
  n.requires_grad = requires_grad;
  n.parents = std::move(parents);
  n.backward = std::move(backward);
  nodes_.push_back(std::move(n));
  return Var{static_cast<int32_t>(nodes_.size() - 1)};
}

void Tape::AccumulateGrad(Var v, const Matrix& delta) {
  AccumulateGrad(v, 1.0, delta);
}

void Tape::AccumulateGrad(Var v, double alpha, const Matrix& delta) {
  Node& n = nodes_[v.id];
  if (!n.requires_grad) return;
  if (!n.grad.empty()) {
    n.grad.Axpy(alpha, delta);
    return;
  }
  // First contribution: write the bits a zero-filled buffer plus Axpy
  // gives, 0.0 + alpha * x, in one pass on the pool. Moving `delta` in would
  // keep a -0.0 that the sum turns into +0.0.
  GALIGN_DCHECK(delta.rows() == n.value.rows() &&
                delta.cols() == n.value.cols());
  n.grad.Resize(delta.rows(), delta.cols());
  double* y = n.grad.data();
  const double* x = delta.data();
  ParallelFor(0, delta.size(), [y, x, alpha](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) y[i] = 0.0 + alpha * x[i];
  });
}

Matrix* Tape::EnsureGrad(Var v) {
  Node& n = nodes_[v.id];
  GALIGN_DCHECK(n.requires_grad);
  if (n.grad.empty()) ZeroGrad(&n.grad, n.value.rows(), n.value.cols());
  return &n.grad;
}

void Tape::Backward(Var root) {
  GALIGN_DCHECK(root.valid() && root.id < size());
  Node& r = nodes_[root.id];
  GALIGN_DCHECK(r.value.rows() == 1 && r.value.cols() == 1);
  // Reset gradients.
  for (Node& n : nodes_) {
    if (!n.grad.empty()) n.grad.Fill(0.0);
  }
  if (r.grad.empty()) ZeroGrad(&r.grad, 1, 1);
  r.grad(0, 0) = 1.0;
  for (int32_t i = root.id; i >= 0; --i) {
    Node& n = nodes_[i];
    if (!n.backward) continue;
    if (!AnyNonZero(n.grad)) continue;
    n.backward(this, Var{i});
  }
  // Guarantee every requires_grad node exposes a correctly shaped gradient,
  // even when no path from the root touched it (e.g. an exactly-zero loss):
  // optimizers consume these by shape.
  for (Node& n : nodes_) {
    if (n.requires_grad && n.grad.empty()) {
      ZeroGrad(&n.grad, n.value.rows(), n.value.cols());
    }
  }
}

}  // namespace galign
