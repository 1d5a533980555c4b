// The multi-order GCN embedding model (paper §IV-A, §V-A): k layers of
//   H^(l) = normalize( tanh( C H^(l-1) W^(l) ) ),   H^(0) = normalize(F)
// with C = D̂^{-1/2} Â D̂^{-1/2}. tanh is used instead of ReLU because the
// alignment task needs a sign-preserving (bijective) activation (§IV-A).
// The weights W are shared by every network passed through the model — the
// weight-sharing mechanism that puts all embeddings in one space (§V-D).
#pragma once

#include <vector>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "common/rng.h"
#include "common/status.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace galign {

/// Which activation the GCN applies (kTanh is the paper's choice; kRelu is
/// kept for the activation ablation bench).
enum class Activation { kTanh, kRelu, kLinear };

/// \brief Layer 1's epoch-invariant input C·normalize(F) for one graph,
/// held in CSR when that makes its product with W^(1) faster.
///
/// Tag attributes make it mostly zeros (Douban: 3.1-4.5% non-zero), and the
/// sparse product skips them. Both forms give the same bits (DESIGN.md §6),
/// so the choice, made from the measured density alone, only moves time.
class LayerInput {
 public:
  /// Densities below this keep the CSR form: the crossover of the sparse
  /// and dense products at Douban's layer-1 shape (bench_kernels
  /// BM_LayerOne*).
  static constexpr double kMaxSparseDensity = 0.25;

  /// Takes C·normalize(F) and keeps it dense or converts it to CSR.
  explicit LayerInput(Matrix dense);

  int64_t cols() const { return is_sparse_ ? csr_.cols() : dense_.cols(); }
  bool is_sparse() const { return is_sparse_; }

  /// Records this * w on `tape` with this as a constant operand: not copied
  /// onto the tape, and only dW = thisᵀ·G flows back. This must outlive the
  /// tape's Backward().
  Var MatMul(Tape* tape, Var w) const;

 private:
  bool is_sparse_;
  Matrix dense_;      // empty when is_sparse_
  SparseMatrix csr_;  // empty unless is_sparse_
};

/// \brief k-layer GCN with externally owned, shared weights.
class MultiOrderGcn {
 public:
  /// Initializes Xavier weights: W^(1) is input_dim x embedding_dim, deeper
  /// layers embedding_dim x embedding_dim.
  MultiOrderGcn(int num_layers, int64_t input_dim, int64_t embedding_dim,
                Rng* rng, Activation activation = Activation::kTanh);

  /// Per-layer dimension variant (paper Table I: d^(l) may differ by
  /// layer): layer_dims[l] is the output width of layer l+1. Must be
  /// non-empty; embedding_dim() reports the last layer's width.
  MultiOrderGcn(const std::vector<int64_t>& layer_dims, int64_t input_dim,
                Rng* rng, Activation activation = Activation::kTanh);

  int num_layers() const { return static_cast<int>(weights_.size()); }
  int64_t input_dim() const { return input_dim_; }
  int64_t embedding_dim() const { return embedding_dim_; }
  Activation activation() const { return activation_; }

  std::vector<Matrix>& weights() { return weights_; }
  const std::vector<Matrix>& weights() const { return weights_; }

  /// \brief Differentiable forward pass on a tape.
  ///
  /// Returns k+1 vars: the normalized input H^(0) plus one per layer. The
  /// weight leaves used are returned through `weight_vars` so the caller can
  /// read their gradients after Backward(); pass the same weight leaves when
  /// forwarding several graphs on one tape to share weights.
  std::vector<Var> Forward(Tape* tape, const SparseMatrix* laplacian,
                           const Matrix& features,
                           std::vector<Var>* weight_vars) const;

  /// Creates the weight leaves (requires_grad) on `tape` once; feed these to
  /// Forward() for every graph in the same step.
  std::vector<Var> MakeWeightLeaves(Tape* tape) const;

  /// Same forward with the given pre-made weight leaves.
  std::vector<Var> ForwardWithWeights(Tape* tape,
                                      const SparseMatrix* laplacian,
                                      const Matrix& features,
                                      const std::vector<Var>& weight_vars) const;

  /// \brief Layer 1's input C H^(0) for one graph, H^(0) = normalize(F).
  ///
  /// It depends on the graph only, not on the weights, so a trainer computes
  /// it once and passes it to ForwardFromInput every epoch. It is computed
  /// by the same tape ops ForwardWithWeights records, so both forwards give
  /// bit-identical layers and gradients.
  static LayerInput PropagatedInput(const SparseMatrix& laplacian,
                                    const Matrix& features);

  /// \brief ForwardWithWeights from a precomputed PropagatedInput.
  ///
  /// `input` is a constant operand of layer 1: it is not copied onto the
  /// tape and must outlive Backward(). Returns k+1 vars like
  /// ForwardWithWeights, except that index 0 is an invalid Var because
  /// H^(0) is not on the tape (the losses read layers 1..k only).
  std::vector<Var> ForwardFromInput(Tape* tape, const SparseMatrix* laplacian,
                                    const LayerInput* input,
                                    const std::vector<Var>& weight_vars) const;

  /// \brief Inference-only forward pass (no tape, no gradients).
  ///
  /// Used by alignment instantiation and by refinement's first embedding.
  std::vector<Matrix> ForwardInference(const SparseMatrix& laplacian,
                                       const Matrix& features) const;

  /// \brief Brings a ForwardInference result up to date with a changed
  /// propagation matrix by recomputing only the listed rows.
  ///
  /// `layers` holds ForwardInference(old, F); rows[l - 1] lists, ascending
  /// and without repeats, every row of layer l whose inputs can differ
  /// under `laplacian`: the rows whose row of C changed, plus, for l > 1,
  /// every row with a stored entry in a column listed for layer l - 1.
  /// The result is bit-identical to ForwardInference(laplacian, F): an
  /// SpMM row depends only on its own non-zeros, and a GEMM entry only on
  /// its row, its column and the 256-wide k-panel order (DESIGN.md §6).
  /// Refinement uses it after each influence update (Eq. 15).
  void UpdateInferenceRows(const SparseMatrix& laplacian,
                           const std::vector<std::vector<int64_t>>& rows,
                           std::vector<Matrix>* layers) const;

 private:
  // normalize(act(agg · W^(layer + 1))), the inference arithmetic of one
  // layer after propagation.
  Matrix InferenceLayer(const Matrix& agg, size_t layer) const;

  // Appends layers 1..k to `layers`, whose last entry is H^(0). Layer 1
  // multiplies `input` when it is non-null, else C times that last entry.
  void ForwardLayers(Tape* tape, const SparseMatrix* laplacian,
                     const LayerInput* input,
                     const std::vector<Var>& weight_vars,
                     std::vector<Var>* layers) const;

  int64_t input_dim_;
  int64_t embedding_dim_;
  Activation activation_;
  std::vector<Matrix> weights_;
};

}  // namespace galign
