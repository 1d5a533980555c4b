#include "core/gcn.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"
#include "la/ops.h"

namespace galign {

namespace {

// True when fewer than `max_density` of m's entries are non-zero (NaN
// counts as non-zero).
bool SparserThan(const Matrix& m, double max_density) {
  int64_t nonzero = 0;
  for (int64_t i = 0; i < m.size(); ++i) nonzero += m.data()[i] != 0.0;
  return static_cast<double>(nonzero) <
         max_density * static_cast<double>(m.size());
}

}  // namespace

LayerInput::LayerInput(Matrix dense)
    : is_sparse_(SparserThan(dense, kMaxSparseDensity)) {
  if (is_sparse_) {
    csr_ = SparseMatrix::FromDense(dense);
  } else {
    dense_ = std::move(dense);
  }
}

Var LayerInput::MatMul(Tape* tape, Var w) const {
  return is_sparse_ ? ag::MatMul(tape, &csr_, w) : ag::MatMul(tape, &dense_, w);
}

MultiOrderGcn::MultiOrderGcn(int num_layers, int64_t input_dim,
                             int64_t embedding_dim, Rng* rng,
                             Activation activation)
    : MultiOrderGcn(std::vector<int64_t>(
                        static_cast<size_t>(num_layers > 0 ? num_layers : 1),
                        embedding_dim),
                    input_dim, rng, activation) {
  GALIGN_DCHECK(num_layers >= 1);
}

MultiOrderGcn::MultiOrderGcn(const std::vector<int64_t>& layer_dims,
                             int64_t input_dim, Rng* rng,
                             Activation activation)
    : input_dim_(input_dim),
      embedding_dim_(layer_dims.empty() ? 1 : layer_dims.back()),
      activation_(activation) {
  GALIGN_DCHECK(!layer_dims.empty() && input_dim >= 1);
  weights_.reserve(layer_dims.size());
  int64_t in = input_dim;
  for (int64_t dim : layer_dims) {
    GALIGN_DCHECK(dim >= 1);
    weights_.push_back(Matrix::Xavier(in, dim, rng));
    in = dim;
  }
}

std::vector<Var> MultiOrderGcn::MakeWeightLeaves(Tape* tape) const {
  std::vector<Var> vars;
  vars.reserve(weights_.size());
  for (const Matrix& w : weights_) {
    vars.push_back(tape->Leaf(w, /*requires_grad=*/true));
  }
  return vars;
}

std::vector<Var> MultiOrderGcn::Forward(Tape* tape,
                                        const SparseMatrix* laplacian,
                                        const Matrix& features,
                                        std::vector<Var>* weight_vars) const {
  std::vector<Var> wv = MakeWeightLeaves(tape);
  std::vector<Var> out = ForwardWithWeights(tape, laplacian, features, wv);
  if (weight_vars != nullptr) *weight_vars = std::move(wv);
  return out;
}

std::vector<Var> MultiOrderGcn::ForwardWithWeights(
    Tape* tape, const SparseMatrix* laplacian, const Matrix& features,
    const std::vector<Var>& weight_vars) const {
  GALIGN_DCHECK(features.cols() == input_dim_);
  std::vector<Var> layers;
  layers.reserve(weights_.size() + 1);
  layers.push_back(ag::NormalizeRows(tape, tape->Leaf(features, false)));
  ForwardLayers(tape, laplacian, /*input=*/nullptr, weight_vars, &layers);
  return layers;
}

LayerInput MultiOrderGcn::PropagatedInput(const SparseMatrix& laplacian,
                                          const Matrix& features) {
  Tape tape;
  Var h0 = ag::NormalizeRows(&tape, tape.Leaf(features, false));
  return LayerInput(
      std::move(tape.mutable_value(ag::SpMM(&tape, &laplacian, h0))));
}

std::vector<Var> MultiOrderGcn::ForwardFromInput(
    Tape* tape, const SparseMatrix* laplacian, const LayerInput* input,
    const std::vector<Var>& weight_vars) const {
  GALIGN_DCHECK(input != nullptr && input->cols() == input_dim_);
  std::vector<Var> layers;
  layers.reserve(weights_.size() + 1);
  layers.push_back(Var{});
  ForwardLayers(tape, laplacian, input, weight_vars, &layers);
  return layers;
}

void MultiOrderGcn::ForwardLayers(Tape* tape, const SparseMatrix* laplacian,
                                  const LayerInput* input,
                                  const std::vector<Var>& weight_vars,
                                  std::vector<Var>* layers) const {
  GALIGN_DCHECK(weight_vars.size() == weights_.size());
  Var h = layers->back();
  for (size_t l = 0; l < weights_.size(); ++l) {
    Var pre = l == 0 && input != nullptr
                  ? input->MatMul(tape, weight_vars[l])
                  : ag::MatMul(tape, ag::SpMM(tape, laplacian, h),
                               weight_vars[l]);
    Var act;
    switch (activation_) {
      case Activation::kTanh:
        act = ag::Tanh(tape, pre);
        break;
      case Activation::kRelu:
        act = ag::Relu(tape, pre);
        break;
      case Activation::kLinear:
        act = pre;
        break;
    }
    h = ag::NormalizeRows(tape, act);
    layers->push_back(h);
  }
}

std::vector<Matrix> MultiOrderGcn::ForwardInference(
    const SparseMatrix& laplacian, const Matrix& features) const {
  GALIGN_DCHECK(features.cols() == input_dim_);
  std::vector<Matrix> layers;
  layers.reserve(weights_.size() + 1);
  {
    Matrix h = features;
    h.NormalizeRows();
    layers.push_back(std::move(h));
  }
  // `agg` is reused across layers (same n x d after layer one). The reserve
  // above keeps row pointers stable, so reading the previous layer by
  // reference is safe.
  Matrix agg;
  for (size_t l = 0; l < weights_.size(); ++l) {
    laplacian.MultiplyInto(layers.back(), &agg);
    layers.push_back(InferenceLayer(agg, l));
  }
  return layers;
}

void MultiOrderGcn::UpdateInferenceRows(
    const SparseMatrix& laplacian,
    const std::vector<std::vector<int64_t>>& rows,
    std::vector<Matrix>* layers) const {
  GALIGN_DCHECK(rows.size() == weights_.size());
  GALIGN_DCHECK(layers->size() == weights_.size() + 1);
  Matrix agg;
  for (size_t l = 0; l < weights_.size(); ++l) {
    const std::vector<int64_t>& changed = rows[l];
    const Matrix& in = (*layers)[l];
    Matrix& out = (*layers)[l + 1];
    if (changed.empty()) continue;
    laplacian.RowSubset(changed).MultiplyInto(in, &agg);
    const Matrix h = InferenceLayer(agg, l);
    ParallelFor(0, static_cast<int64_t>(changed.size()),
                [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        std::copy(h.row_data(i), h.row_data(i) + h.cols(),
                  out.row_data(changed[i]));
      }
    }, /*min_chunk=*/64);
  }
}

Matrix MultiOrderGcn::InferenceLayer(const Matrix& agg, size_t layer) const {
  // The activation runs in place, so a layer allocates only its output.
  Matrix pre;
  MatMulInto(agg, weights_[layer], &pre);
  switch (activation_) {
    case Activation::kTanh:
      TanhInto(pre, &pre);
      break;
    case Activation::kRelu:
      for (int64_t i = 0; i < pre.size(); ++i) {
        pre.data()[i] = pre.data()[i] > 0.0 ? pre.data()[i] : 0.0;
      }
      break;
    case Activation::kLinear:
      break;
  }
  pre.NormalizeRows();
  return pre;
}

}  // namespace galign
