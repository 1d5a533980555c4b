#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"
#include "la/ops.h"

namespace galign {
namespace ag {

namespace {
bool AnyRequiresGrad(const Tape& t, std::initializer_list<Var> vars) {
  for (Var v : vars) {
    if (t.requires_grad(v)) return true;
  }
  return false;
}

// Runs fn over ranges [i0, i1) of [0, n) on the thread pool, where each
// index (a row, a stored entry) costs `width` entries of work; tasks get at
// least ~4096 entries. Each index's outputs are written by one task with
// unchanged arithmetic, so results do not depend on the partition.
void ForRanges(int64_t n, int64_t width,
               const std::function<void(int64_t, int64_t)>& fn) {
  ParallelFor(0, n, fn,
              std::max<int64_t>(1, 4096 / std::max<int64_t>(1, width)));
}

// acc + a * b rounded as a scalar `acc += a * b` statement compiles here:
// one fused multiply-add on FMA targets, where the compiler contracts the
// statement, and a rounded product plus a rounded sum elsewhere. Spelled out
// for serial sums over stored arrays, whose loops the vectorizer may turn
// into vector products followed by in-order adds, which rounds differently.
inline double MulAdd(double a, double b, double acc) {
#ifdef __FMA__
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

// True when no two entries of `map` are equal: scattering rows through it
// then writes each destination row from one source row only.
bool IsInjective(const std::vector<int64_t>& map, int64_t range) {
  std::vector<char> seen(static_cast<size_t>(range), 0);
  for (const int64_t u : map) {
    if (u < 0 || u >= range || seen[static_cast<size_t>(u)]) return false;
    seen[static_cast<size_t>(u)] = 1;
  }
  return true;
}
}  // namespace

Var MatMul(Tape* t, Var a, Var b) {
  Matrix y = galign::MatMul(t->value(a), t->value(b));
  bool rg = AnyRequiresGrad(*t, {a, b});
  return t->Emit(
      std::move(y), {a, b},
      [a, b](Tape* tp, Var self) {
        const Matrix& g = tp->grad(self);
        if (tp->requires_grad(a)) {
          MatMulTransposedBInto(g, tp->value(b), tp->EnsureGrad(a),
                                /*accumulate=*/true);
        }
        if (tp->requires_grad(b)) {
          MatMulTransposedAInto(tp->value(a), g, tp->EnsureGrad(b),
                                /*accumulate=*/true);
        }
      },
      rg);
}

Var MatMul(Tape* t, const Matrix* a, Var b) {
  GALIGN_DCHECK(a != nullptr);
  Matrix y = galign::MatMul(*a, t->value(b));
  bool rg = t->requires_grad(b);
  return t->Emit(
      std::move(y), {b},
      [a, b](Tape* tp, Var self) {
        if (tp->requires_grad(b)) {
          MatMulTransposedAInto(*a, tp->grad(self), tp->EnsureGrad(b),
                                /*accumulate=*/true);
        }
      },
      rg);
}

Var MatMul(Tape* t, const SparseMatrix* a, Var b) {
  GALIGN_DCHECK(a != nullptr);
  Matrix y;
  MatMulInto(*a, t->value(b), &y);
  bool rg = t->requires_grad(b);
  return t->Emit(
      std::move(y), {b},
      [a, b](Tape* tp, Var self) {
        if (tp->requires_grad(b)) {
          MatMulTransposedAInto(*a, tp->grad(self), tp->EnsureGrad(b),
                                /*accumulate=*/true);
        }
      },
      rg);
}

Var SpMM(Tape* t, const SparseMatrix* sparse, Var x) {
  GALIGN_DCHECK(sparse != nullptr);
  Matrix y = sparse->Multiply(t->value(x));
  bool rg = t->requires_grad(x);
  return t->Emit(
      std::move(y), {x},
      [sparse, x](Tape* tp, Var self) {
        if (tp->requires_grad(x)) {
          sparse->TransposedMultiplyInto(tp->grad(self), tp->EnsureGrad(x),
                                         /*accumulate=*/true);
        }
      },
      rg);
}

Var Tanh(Tape* t, Var x) {
  Matrix y = galign::Tanh(t->value(x));
  bool rg = t->requires_grad(x);
  return t->Emit(
      std::move(y), {x},
      [x](Tape* tp, Var self) {
        if (!tp->requires_grad(x)) return;
        const double* y = tp->value(self).data();
        const double* g = tp->grad(self).data();
        double* gx = tp->EnsureGrad(x)->data();
        ParallelFor(0, tp->value(self).size(), [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            gx[i] += g[i] * (1.0 - y[i] * y[i]);
          }
        });
      },
      rg);
}

Var Sigmoid(Tape* t, Var x) {
  Matrix y = Map(t->value(x),
                 [](double v) { return 1.0 / (1.0 + std::exp(-v)); });
  bool rg = t->requires_grad(x);
  return t->Emit(
      std::move(y), {x},
      [x](Tape* tp, Var self) {
        if (!tp->requires_grad(x)) return;
        const Matrix& y = tp->value(self);
        const Matrix& g = tp->grad(self);
        double* gx = tp->EnsureGrad(x)->data();
        for (int64_t i = 0; i < y.size(); ++i) {
          gx[i] += g.data()[i] * y.data()[i] * (1.0 - y.data()[i]);
        }
      },
      rg);
}

Var Relu(Tape* t, Var x) {
  Matrix y = Map(t->value(x), [](double v) { return v > 0.0 ? v : 0.0; });
  bool rg = t->requires_grad(x);
  return t->Emit(
      std::move(y), {x},
      [x](Tape* tp, Var self) {
        if (!tp->requires_grad(x)) return;
        const Matrix& xv = tp->value(x);
        const Matrix& g = tp->grad(self);
        double* gx = tp->EnsureGrad(x)->data();
        for (int64_t i = 0; i < xv.size(); ++i) {
          if (xv.data()[i] > 0.0) gx[i] += g.data()[i];
        }
      },
      rg);
}

Var NormalizeRows(Tape* t, Var x, double eps) {
  const Matrix& xv = t->value(x);
  Matrix y;
  y.Resize(xv.rows(), xv.cols());
  std::vector<double> inv_norm(xv.rows());
  ForRanges(xv.rows(), xv.cols(), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      double n = xv.RowNorm(r);
      inv_norm[r] = 1.0 / std::max(n, eps);
      const double* in = xv.row_data(r);
      double* row = y.row_data(r);
      for (int64_t c = 0; c < xv.cols(); ++c) row[c] = in[c] * inv_norm[r];
    }
  });
  bool rg = t->requires_grad(x);
  return t->Emit(
      std::move(y), {x},
      [x, inv_norm = std::move(inv_norm)](Tape* tp, Var self) {
        if (!tp->requires_grad(x)) return;
        const Matrix& y = tp->value(self);
        const Matrix& g = tp->grad(self);
        Matrix dx;
        dx.Resize(y.rows(), y.cols());
        ForRanges(y.rows(), y.cols(), [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            const double* yr = y.row_data(r);
            const double* gr = g.row_data(r);
            double* dr = dx.row_data(r);
            double dot = 0.0;
            for (int64_t c = 0; c < y.cols(); ++c) dot += yr[c] * gr[c];
            for (int64_t c = 0; c < y.cols(); ++c) {
              dr[c] = inv_norm[r] * (gr[c] - yr[c] * dot);
            }
          }
        });
        tp->AccumulateGrad(x, dx);
      },
      rg);
}

Var Add(Tape* t, Var a, Var b) {
  Matrix y = galign::Add(t->value(a), t->value(b));
  bool rg = AnyRequiresGrad(*t, {a, b});
  return t->Emit(
      std::move(y), {a, b},
      [a, b](Tape* tp, Var self) {
        tp->AccumulateGrad(a, tp->grad(self));
        tp->AccumulateGrad(b, tp->grad(self));
      },
      rg);
}

Var Sub(Tape* t, Var a, Var b) {
  Matrix y = galign::Sub(t->value(a), t->value(b));
  bool rg = AnyRequiresGrad(*t, {a, b});
  return t->Emit(
      std::move(y), {a, b},
      [a, b](Tape* tp, Var self) {
        tp->AccumulateGrad(a, tp->grad(self));
        tp->AccumulateGrad(b, -1.0, tp->grad(self));
      },
      rg);
}

Var Scale(Tape* t, Var a, double alpha) {
  Matrix y = galign::Scale(t->value(a), alpha);
  bool rg = t->requires_grad(a);
  return t->Emit(
      std::move(y), {a},
      [a, alpha](Tape* tp, Var self) {
        tp->AccumulateGrad(a, alpha, tp->grad(self));
      },
      rg);
}

Var AddBias(Tape* t, Var x, Var bias) {
  const Matrix& xv = t->value(x);
  const Matrix& bv = t->value(bias);
  GALIGN_DCHECK(bv.rows() == 1 && bv.cols() == xv.cols());
  Matrix y = xv;
  for (int64_t r = 0; r < y.rows(); ++r) {
    double* row = y.row_data(r);
    for (int64_t c = 0; c < y.cols(); ++c) row[c] += bv(0, c);
  }
  bool rg = AnyRequiresGrad(*t, {x, bias});
  return t->Emit(
      std::move(y), {x, bias},
      [x, bias](Tape* tp, Var self) {
        const Matrix& g = tp->grad(self);
        tp->AccumulateGrad(x, g);
        if (tp->requires_grad(bias)) {
          Matrix gb(1, g.cols());
          for (int64_t r = 0; r < g.rows(); ++r) {
            const double* row = g.row_data(r);
            for (int64_t c = 0; c < g.cols(); ++c) gb(0, c) += row[c];
          }
          tp->AccumulateGrad(bias, gb);
        }
      },
      rg);
}

Var WeightedSum(Tape* t, const std::vector<std::pair<Var, double>>& terms) {
  double total = 0.0;
  bool rg = false;
  std::vector<Var> parents;
  for (const auto& [v, w] : terms) {
    GALIGN_DCHECK(t->value(v).rows() == 1 && t->value(v).cols() == 1);
    total += w * t->value(v)(0, 0);
    rg = rg || t->requires_grad(v);
    parents.push_back(v);
  }
  Matrix y(1, 1, total);
  auto weights = terms;
  return t->Emit(
      std::move(y), std::move(parents),
      [weights](Tape* tp, Var self) {
        const double g = tp->grad(self)(0, 0);
        for (const auto& [v, w] : weights) {
          Matrix d(1, 1, g * w);
          tp->AccumulateGrad(v, d);
        }
      },
      rg);
}

Var FrobeniusNorm(Tape* t, Var a) {
  double norm = t->value(a).FrobeniusNorm();
  Matrix y(1, 1, norm);
  bool rg = t->requires_grad(a);
  return t->Emit(
      std::move(y), {a},
      [a](Tape* tp, Var self) {
        if (!tp->requires_grad(a)) return;
        const double g = tp->grad(self)(0, 0);
        const double norm = tp->value(self)(0, 0);
        if (norm < 1e-12) return;
        tp->AccumulateGrad(a, g / norm, tp->value(a));
      },
      rg);
}

Var MSELoss(Tape* t, Var pred, const Matrix& target) {
  const Matrix& p = t->value(pred);
  GALIGN_DCHECK(p.SameShape(target));
  double sum = 0.0;
  for (int64_t i = 0; i < p.size(); ++i) {
    double d = p.data()[i] - target.data()[i];
    sum += d * d;
  }
  const double inv_n = 1.0 / static_cast<double>(p.size());
  Matrix y(1, 1, sum * inv_n);
  bool rg = t->requires_grad(pred);
  Matrix target_copy = target;
  return t->Emit(
      std::move(y), {pred},
      [pred, target_copy = std::move(target_copy), inv_n](Tape* tp,
                                                          Var self) {
        if (!tp->requires_grad(pred)) return;
        const double g = tp->grad(self)(0, 0);
        const Matrix& p = tp->value(pred);
        Matrix d(p.rows(), p.cols());
        for (int64_t i = 0; i < p.size(); ++i) {
          d.data()[i] =
              2.0 * inv_n * g * (p.data()[i] - target_copy.data()[i]);
        }
        tp->AccumulateGrad(pred, d);
      },
      rg);
}

Var ConsistencyLoss(Tape* t, const SparseMatrix* c, Var h) {
  GALIGN_DCHECK(c != nullptr);
  const Matrix& hv = t->value(h);
  GALIGN_DCHECK(c->rows() == hv.rows() && c->cols() == hv.rows());

  // ||C||^2 over stored entries.
  double c_sq = 0.0;
  for (double v : c->values()) c_sq += v * v;

  // -2 sum_{(i,j) in C} C_ij <H_i, H_j>. The stored-entry dot products are
  // computed on the pool, split by entry count so hub rows do not serialize
  // the pass; the weighted sum stays serial in stored order.
  const auto& rp = c->row_ptr();
  const auto& ci = c->col_idx();
  const auto& cv = c->values();
  const int64_t d = hv.cols();
  const int64_t nnz = c->nnz();
  std::vector<double> dots(static_cast<size_t>(nnz));
  ForRanges(nnz, d, [&](int64_t i0, int64_t i1) {
    int64_t r = std::upper_bound(rp.begin(), rp.end(), i0) - rp.begin() - 1;
    for (int64_t i = i0; i < i1; ++i) {
      while (rp[r + 1] <= i) ++r;
      const double* hr = hv.row_data(r);
      const double* hj = hv.row_data(ci[i]);
      double dot = 0.0;
      for (int64_t k = 0; k < d; ++k) dot += hr[k] * hj[k];
      dots[i] = dot;
    }
  });
  double cross = 0.0;
  for (int64_t i = 0; i < nnz; ++i) cross = MulAdd(cv[i], dots[i], cross);

  // ||H^T H||^2 (d x d Gram).
  Matrix gram = MatMulTransposedA(hv, hv);
  double gram_sq = gram.SquaredNorm();

  double sq = c_sq - 2.0 * cross + gram_sq;
  if (sq < 0.0) sq = 0.0;  // numerical guard
  double norm = std::sqrt(sq);
  Matrix y(1, 1, norm);
  bool rg = t->requires_grad(h);
  return t->Emit(
      std::move(y), {h},
      [c, h, gram = std::move(gram)](Tape* tp, Var self) {
        if (!tp->requires_grad(h)) return;
        const double norm = tp->value(self)(0, 0);
        if (norm < 1e-12) return;
        const double g = tp->grad(self)(0, 0);
        const Matrix& hv = tp->value(h);
        // d||C - HH^T||^2 / dH = -2 (C + C^T) H + 4 H (H^T H)
        Matrix grad = c->Multiply(hv);
        c->TransposedMultiplyInto(hv, &grad, /*accumulate=*/true);
        grad.Scale(-2.0);
        grad.Axpy(4.0, galign::MatMul(hv, gram));
        // Chain rule for the sqrt: factor g / (2 norm).
        grad.Scale(g / (2.0 * norm));
        tp->AccumulateGrad(h, grad);
      },
      rg);
}

Var AdaptivityLoss(Tape* t, Var a, Var b,
                   const std::vector<int64_t>& correspondence,
                   double threshold) {
  const Matrix& av = t->value(a);
  const Matrix& bv = t->value(b);
  GALIGN_DCHECK(av.cols() == bv.cols());
  GALIGN_DCHECK(static_cast<int64_t>(correspondence.size()) == av.rows());
  // A permutation (one-to-one) correspondence lets the backward pass write
  // the rows of both gradients in parallel without two tasks sharing a row.
  GALIGN_DCHECK(IsInjective(correspondence, bv.rows()));

  std::vector<double> dist(av.rows());
  ForRanges(av.rows(), av.cols(), [&](int64_t v0, int64_t v1) {
    for (int64_t v = v0; v < v1; ++v) {
      double d2 = RowSquaredDistance(av, v, bv, correspondence[v]);
      dist[v] = std::sqrt(d2);
    }
  });
  double total = 0.0;
  for (int64_t v = 0; v < av.rows(); ++v) {
    if (dist[v] < threshold) total += dist[v];
  }
  Matrix y(1, 1, total);
  bool rg = AnyRequiresGrad(*t, {a, b});
  auto corr = correspondence;
  return t->Emit(
      std::move(y), {a, b},
      [a, b, corr = std::move(corr), dist = std::move(dist),
       threshold](Tape* tp, Var self) {
        const double g = tp->grad(self)(0, 0);
        const Matrix& av = tp->value(a);
        const Matrix& bv = tp->value(b);
        Matrix ga, gb;
        ga.Resize(av.rows(), av.cols());
        gb.Resize(bv.rows(), bv.cols());
        ga.Fill(0.0);
        gb.Fill(0.0);
        ForRanges(av.rows(), av.cols(), [&](int64_t v0, int64_t v1) {
          for (int64_t v = v0; v < v1; ++v) {
            if (dist[v] >= threshold || dist[v] < 1e-12) continue;
            const int64_t u = corr[v];
            const double scale = g / dist[v];
            const double* pa = av.row_data(v);
            const double* pb = bv.row_data(u);
            double* qa = ga.row_data(v);
            double* qb = gb.row_data(u);
            for (int64_t k = 0; k < av.cols(); ++k) {
              double diff = scale * (pa[k] - pb[k]);
              qa[k] += diff;
              qb[k] -= diff;
            }
          }
        });
        tp->AccumulateGrad(a, ga);
        tp->AccumulateGrad(b, gb);
      },
      rg);
}

Var AnchorLoss(Tape* t, Var a, Var b,
               const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  const Matrix& av = t->value(a);
  const Matrix& bv = t->value(b);
  GALIGN_DCHECK(av.cols() == bv.cols());
  double total = 0.0;
  std::vector<double> dist(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto [v, u] = pairs[i];
    dist[i] = std::sqrt(RowSquaredDistance(av, v, bv, u));
    total += dist[i];
  }
  Matrix y(1, 1, total);
  bool rg = AnyRequiresGrad(*t, {a, b});
  auto pairs_copy = pairs;
  return t->Emit(
      std::move(y), {a, b},
      [a, b, pairs = std::move(pairs_copy),
       dist = std::move(dist)](Tape* tp, Var self) {
        const double g = tp->grad(self)(0, 0);
        const Matrix& av = tp->value(a);
        const Matrix& bv = tp->value(b);
        Matrix ga(av.rows(), av.cols());
        Matrix gb(bv.rows(), bv.cols());
        for (size_t i = 0; i < pairs.size(); ++i) {
          if (dist[i] < 1e-12) continue;
          auto [v, u] = pairs[i];
          const double scale = g / dist[i];
          const double* pa = av.row_data(v);
          const double* pb = bv.row_data(u);
          double* qa = ga.row_data(v);
          double* qb = gb.row_data(u);
          for (int64_t k = 0; k < av.cols(); ++k) {
            double diff = scale * (pa[k] - pb[k]);
            qa[k] += diff;
            qb[k] -= diff;
          }
        }
        tp->AccumulateGrad(a, ga);
        tp->AccumulateGrad(b, gb);
      },
      rg);
}

}  // namespace ag
}  // namespace galign
