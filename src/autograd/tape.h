// Tape-based reverse-mode automatic differentiation over dense matrices.
//
// The design is deliberately per-step: a Tape is built fresh for every
// training iteration (parameters are external Matrix objects inserted as
// leaves), forward ops append nodes, Backward() runs the recorded closures in
// reverse order. This keeps the engine small and makes graph lifetime
// trivially correct.
//
// GCN-specific losses (consistency Eq. 7, adaptivity Eq. 9) are implemented
// as fused ops in autograd/ops.h with closed-form gradients so that no n x n
// intermediate is ever materialized (see DESIGN.md §4).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "la/matrix.h"

namespace galign {

/// Opaque handle to a node on a Tape.
struct Var {
  int32_t id = -1;
  bool valid() const { return id >= 0; }
};

/// \brief Records a forward computation and differentiates it in reverse.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Inserts a leaf. If requires_grad, Backward() will accumulate into its
  /// gradient (readable via grad()).
  Var Leaf(Matrix value, bool requires_grad = false);

  /// Inserts an interior node produced by an op. `backward` is invoked once
  /// during Backward() and must scatter this node's grad into its parents'
  /// grads. Pass requires_grad = false for nodes known to be constant.
  Var Emit(Matrix value, std::vector<Var> parents,
           std::function<void(Tape*, Var)> backward, bool requires_grad);

  const Matrix& value(Var v) const { return nodes_[v.id].value; }
  Matrix& mutable_value(Var v) { return nodes_[v.id].value; }

  /// Gradient of the last Backward() root with respect to v. Zero matrix if
  /// the node did not participate.
  const Matrix& grad(Var v) const { return nodes_[v.id].grad; }

  bool requires_grad(Var v) const { return nodes_[v.id].requires_grad; }

  /// Adds `delta` into v's gradient accumulator (used by op backward fns).
  void AccumulateGrad(Var v, const Matrix& delta);
  /// Adds alpha * delta into v's gradient accumulator. The first
  /// contribution writes 0.0 + alpha * delta in one pass, the same bits as
  /// adding it to a zero-filled buffer.
  void AccumulateGrad(Var v, double alpha, const Matrix& delta);

  /// Returns v's gradient accumulator, allocating a matrix of v's shape
  /// zeroed on the thread pool on first use. Lets backward fns accumulate
  /// straight into the buffer via the kernels' `*Into(..., accumulate=true)`
  /// forms instead of materializing a temporary and Axpy-ing it in. v must
  /// require grad.
  Matrix* EnsureGrad(Var v);

  /// Runs reverse-mode accumulation from `root`, which must hold a 1x1
  /// value. Gradients of all requires_grad nodes are populated.
  void Backward(Var root);

  /// Number of nodes currently on the tape.
  int64_t size() const { return static_cast<int64_t>(nodes_.size()); }

 private:
  struct Node {
    Matrix value;
    Matrix grad;  // lazily sized
    bool requires_grad = false;
    std::vector<Var> parents;
    std::function<void(Tape*, Var)> backward;
  };

  std::vector<Node> nodes_;
};

}  // namespace galign
