#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "la/ops.h"

namespace galign {
namespace {

// Central finite-difference check: builds the scalar loss twice per probed
// entry and compares to the analytic gradient from Backward().
void CheckGradient(
    const Matrix& x,
    const std::function<Var(Tape*, Var)>& build_loss,
    double tol = 1e-6, double eps = 1e-6) {
  Tape tape;
  Var leaf = tape.Leaf(x, /*requires_grad=*/true);
  Var loss = build_loss(&tape, leaf);
  ASSERT_EQ(tape.value(loss).rows(), 1);
  ASSERT_EQ(tape.value(loss).cols(), 1);
  tape.Backward(loss);
  Matrix analytic = tape.grad(leaf);

  auto eval = [&](const Matrix& probe) {
    Tape t2;
    Var l2 = t2.Leaf(probe, false);
    Var loss2 = build_loss(&t2, l2);
    return t2.value(loss2)(0, 0);
  };

  for (int64_t i = 0; i < x.size(); ++i) {
    Matrix plus = x, minus = x;
    plus.data()[i] += eps;
    minus.data()[i] -= eps;
    double numeric = (eval(plus) - eval(minus)) / (2 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tol)
        << "entry " << i << " of " << x.rows() << "x" << x.cols();
  }
}

// Reduces any matrix-valued var to a scalar via a fixed random projection so
// every op can be gradient-checked through a scalar loss.
Var ProjectToScalar(Tape* t, Var m, uint64_t seed = 123) {
  Rng rng(seed);
  const Matrix& v = t->value(m);
  Matrix w = Matrix::Gaussian(v.rows(), v.cols(), &rng);
  Var wconst = t->Leaf(w, false);
  Var had = t->Emit(
      Hadamard(t->value(m), w), {m, wconst},
      [m, wconst](Tape* tp, Var self) {
        tp->AccumulateGrad(m, Hadamard(tp->grad(self), tp->value(wconst)));
      },
      t->requires_grad(m));
  // Sum all entries.
  const Matrix& hv = t->value(had);
  Matrix s(1, 1, hv.Sum());
  return t->Emit(
      std::move(s), {had},
      [had](Tape* tp, Var self) {
        const Matrix& hv = tp->value(had);
        Matrix ones(hv.rows(), hv.cols(), tp->grad(self)(0, 0));
        tp->AccumulateGrad(had, ones);
      },
      t->requires_grad(had));
}

TEST(TapeTest, LeafValueRoundTrip) {
  Tape t;
  Matrix m{{1, 2}, {3, 4}};
  Var v = t.Leaf(m, true);
  EXPECT_LT(Matrix::MaxAbsDiff(t.value(v), m), 1e-15);
  EXPECT_TRUE(t.requires_grad(v));
}

TEST(TapeTest, BackwardThroughChainedScales) {
  Tape t;
  Var x = t.Leaf(Matrix(1, 1, 3.0), true);
  Var y = ag::Scale(&t, x, 2.0);
  Var z = ag::Scale(&t, y, 5.0);
  t.Backward(z);
  EXPECT_DOUBLE_EQ(t.grad(x)(0, 0), 10.0);
}

TEST(TapeTest, GradAccumulatesAcrossUses) {
  // loss = x + x => dloss/dx = 2.
  Tape t;
  Var x = t.Leaf(Matrix(1, 1, 1.5), true);
  Var y = ag::Add(&t, x, x);
  t.Backward(y);
  EXPECT_DOUBLE_EQ(t.grad(x)(0, 0), 2.0);
}

TEST(TapeTest, NoGradLeafStaysUntouched) {
  Tape t;
  Var x = t.Leaf(Matrix(1, 1, 3.0), false);
  Var y = ag::Scale(&t, x, 2.0);
  t.Backward(y);
  EXPECT_TRUE(t.grad(x).empty() || t.grad(x).MaxAbs() == 0.0);
}

TEST(TapeTest, NanGradientIsNotSkippedAsZero) {
  // A node whose incoming gradient is all NaN must still run its backward:
  // the zero-gradient skip may not mistake NaN for zero, or a non-finite
  // gradient would never reach the weights (and the trainer's rollback).
  Tape t;
  Var x = t.Leaf(Matrix(2, 3, 1.0), true);
  Var y = ag::Scale(&t, x, 2.0);
  Var loss = t.Emit(
      Matrix(1, 1, 0.0), {y},
      [y](Tape* tp, Var) {
        tp->AccumulateGrad(
            y, Matrix(2, 3, std::numeric_limits<double>::quiet_NaN()));
      },
      /*requires_grad=*/true);
  t.Backward(loss);
  ASSERT_TRUE(t.grad(x).SameShape(t.value(x)));
  EXPECT_FALSE(t.grad(x).AllFinite());
}

// A gradient's first contribution is written in one pass instead of added
// to a zero-filled buffer. It must give the bits the zero-fill plus Axpy
// gave, including +0.0 for a -0.0 contribution (0.0 + -0.0 is +0.0) and a
// NaN, and the same bits again when called from a pool task, where the
// pass runs inline.
TEST(TapeTest, FirstGradientWriteMatchesZeroFillPlusAxpy) {
  Rng rng(8);
  Matrix first = Matrix::Gaussian(300, 50, &rng);
  Matrix second = Matrix::Gaussian(300, 50, &rng);
  for (int64_t i = 0; i < first.size(); i += 7) first.data()[i] = -0.0;
  for (int64_t i = 3; i < first.size(); i += 11) first.data()[i] = 0.0;
  first(5, 5) = std::numeric_limits<double>::quiet_NaN();
  second(9, 1) = -0.0;
  for (double alpha : {1.0, -0.75}) {
    Matrix want(300, 50);
    want.Axpy(alpha, first);
    const Matrix want_first = want;
    want.Axpy(1.0, second);
    auto accumulate = [&](Matrix* after_first, Matrix* after_second) {
      Tape t;
      Var x = t.Leaf(Matrix(300, 50, 1.0), /*requires_grad=*/true);
      t.AccumulateGrad(x, alpha, first);
      *after_first = t.grad(x);
      t.AccumulateGrad(x, second);
      *after_second = t.grad(x);
    };
    Matrix got_first, got, inline_first, inline_got;
    accumulate(&got_first, &got);
    ParallelFor(
        0, 2,
        [&](int64_t i0, int64_t) {
          if (i0 == 0) accumulate(&inline_first, &inline_got);
        },
        /*min_chunk=*/1);
    const size_t bytes = want.size() * sizeof(double);
    EXPECT_EQ(std::memcmp(got_first.data(), want_first.data(), bytes), 0)
        << alpha;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0) << alpha;
    EXPECT_EQ(std::memcmp(inline_first.data(), want_first.data(), bytes), 0)
        << alpha;
    EXPECT_EQ(std::memcmp(inline_got.data(), want.data(), bytes), 0) << alpha;
    EXPECT_FALSE(std::signbit(got_first(0, 0))) << "-0.0 contribution";
    EXPECT_TRUE(std::isnan(got(5, 5)));
  }
}

TEST(GradCheck, MatMulConstantLeft) {
  Rng rng(3);
  Matrix a = Matrix::Gaussian(4, 3, &rng);
  Matrix x = Matrix::Gaussian(3, 5, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ProjectToScalar(t, ag::MatMul(t, &a, leaf));
  });
}

TEST(MatMulConstantLeftTest, MatchesLeafOperandBitForBit) {
  // The constant-operand forms, dense and CSR, must give the same value and
  // right-operand gradient as multiplying by a no-grad leaf, without copying
  // `a` onto the tape. The second operand is 90% zeros and 270 columns
  // wide, so the CSR product skips entries and crosses a 256-wide k-panel.
  Rng rng(4);
  Matrix dense_a = Matrix::Gaussian(37, 29, &rng);
  Matrix dense_w = Matrix::Gaussian(29, 11, &rng);
  Matrix sparse_a(300, 270);
  for (int64_t i = 0; i < sparse_a.size(); ++i) {
    if (rng.Uniform() < 0.1) sparse_a.data()[i] = rng.Normal();
  }
  Matrix sparse_w = Matrix::Gaussian(270, 11, &rng);
  const auto same_bits = [](const Matrix& p, const Matrix& q) {
    return p.SameShape(q) &&
           std::memcmp(p.data(), q.data(), p.size() * sizeof(double)) == 0;
  };
  for (const auto& [a, w] : {std::pair{&dense_a, &dense_w},
                             std::pair{&sparse_a, &sparse_w}}) {
    Tape t1;
    Var w1 = t1.Leaf(*w, true);
    Var y1 = ag::MatMul(&t1, t1.Leaf(*a, false), w1);
    t1.Backward(ProjectToScalar(&t1, y1));
    Tape t2;
    Var w2 = t2.Leaf(*w, true);
    Var y2 = ag::MatMul(&t2, a, w2);
    t2.Backward(ProjectToScalar(&t2, y2));
    EXPECT_EQ(t2.size(), t1.size() - 1);
    EXPECT_TRUE(same_bits(t2.value(y2), t1.value(y1)));
    EXPECT_TRUE(same_bits(t2.grad(w2), t1.grad(w1)));
    const SparseMatrix csr = SparseMatrix::FromDense(*a);
    Tape t3;
    Var w3 = t3.Leaf(*w, true);
    Var y3 = ag::MatMul(&t3, &csr, w3);
    t3.Backward(ProjectToScalar(&t3, y3));
    EXPECT_TRUE(same_bits(t3.value(y3), t1.value(y1)));
    EXPECT_TRUE(same_bits(t3.grad(w3), t1.grad(w1)));
  }
}

TEST(GradCheck, MatMulLeft) {
  Rng rng(1);
  Matrix x = Matrix::Gaussian(3, 4, &rng);
  Matrix b = Matrix::Gaussian(4, 5, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    Var bv = t->Leaf(b, false);
    return ProjectToScalar(t, ag::MatMul(t, leaf, bv));
  });
}

TEST(GradCheck, MatMulRight) {
  Rng rng(2);
  Matrix a = Matrix::Gaussian(4, 3, &rng);
  Matrix x = Matrix::Gaussian(3, 6, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    Var av = t->Leaf(a, false);
    return ProjectToScalar(t, ag::MatMul(t, av, leaf));
  });
}

TEST(GradCheck, SpMM) {
  Rng rng(3);
  std::vector<Triplet> trip;
  for (int i = 0; i < 20; ++i) {
    trip.push_back({rng.UniformInt(5), rng.UniformInt(5), rng.Normal()});
  }
  SparseMatrix sp = SparseMatrix::FromTriplets(5, 5, trip);
  Matrix x = Matrix::Gaussian(5, 3, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ProjectToScalar(t, ag::SpMM(t, &sp, leaf));
  });
}

TEST(GradCheck, Tanh) {
  Rng rng(4);
  Matrix x = Matrix::Gaussian(4, 4, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ProjectToScalar(t, ag::Tanh(t, leaf));
  });
}

TEST(GradCheck, Sigmoid) {
  Rng rng(5);
  Matrix x = Matrix::Gaussian(3, 5, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ProjectToScalar(t, ag::Sigmoid(t, leaf));
  });
}

TEST(GradCheck, ReluAwayFromKink) {
  Rng rng(6);
  Matrix x = Matrix::Gaussian(4, 4, &rng);
  // Keep entries away from 0 where ReLU is non-differentiable.
  for (int64_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x.data()[i]) < 0.1) x.data()[i] = 0.5;
  }
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ProjectToScalar(t, ag::Relu(t, leaf));
  });
}

TEST(GradCheck, NormalizeRows) {
  Rng rng(7);
  Matrix x = Matrix::Gaussian(4, 5, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ProjectToScalar(t, ag::NormalizeRows(t, leaf));
  }, 1e-5);
}

TEST(GradCheck, AddSub) {
  Rng rng(8);
  Matrix x = Matrix::Gaussian(3, 3, &rng);
  Matrix b = Matrix::Gaussian(3, 3, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    Var bv = t->Leaf(b, false);
    Var sum = ag::Add(t, leaf, bv);
    Var diff = ag::Sub(t, sum, leaf);  // cancels leaf partially
    Var mixed = ag::Add(t, diff, leaf);
    return ProjectToScalar(t, mixed);
  });
}

TEST(GradCheck, AddBiasOnInput) {
  Rng rng(9);
  Matrix x = Matrix::Gaussian(4, 3, &rng);
  Matrix bias = Matrix::Gaussian(1, 3, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    Var bv = t->Leaf(bias, false);
    return ProjectToScalar(t, ag::AddBias(t, leaf, bv));
  });
}

TEST(GradCheck, AddBiasOnBias) {
  Rng rng(10);
  Matrix input = Matrix::Gaussian(4, 3, &rng);
  Matrix bias = Matrix::Gaussian(1, 3, &rng);
  CheckGradient(bias, [&](Tape* t, Var leaf) {
    Var iv = t->Leaf(input, false);
    return ProjectToScalar(t, ag::AddBias(t, iv, leaf));
  });
}

TEST(GradCheck, FrobeniusNorm) {
  Rng rng(11);
  Matrix x = Matrix::Gaussian(4, 4, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ag::FrobeniusNorm(t, leaf);
  });
}

TEST(GradCheck, MSELoss) {
  Rng rng(12);
  Matrix x = Matrix::Gaussian(5, 3, &rng);
  Matrix target = Matrix::Gaussian(5, 3, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    return ag::MSELoss(t, leaf, target);
  });
}

TEST(GradCheck, WeightedSum) {
  Rng rng(13);
  Matrix x = Matrix::Gaussian(3, 3, &rng);
  CheckGradient(x, [&](Tape* t, Var leaf) {
    Var n1 = ag::FrobeniusNorm(t, leaf);
    Var n2 = ag::FrobeniusNorm(t, ag::Scale(t, leaf, 2.0));
    return ag::WeightedSum(t, {{n1, 0.3}, {n2, 0.7}});
  });
}

TEST(GradCheck, ConsistencyLoss) {
  Rng rng(14);
  // Symmetric sparse "Laplacian-like" matrix.
  std::vector<Triplet> trip;
  for (int i = 0; i < 12; ++i) {
    int64_t u = rng.UniformInt(6), v = rng.UniformInt(6);
    double val = rng.Uniform(0.1, 0.5);
    trip.push_back({u, v, val});
    trip.push_back({v, u, val});
  }
  SparseMatrix c = SparseMatrix::FromTriplets(6, 6, trip);
  Matrix h = Matrix::Gaussian(6, 4, &rng, 0.5);
  CheckGradient(h, [&](Tape* t, Var leaf) {
    return ag::ConsistencyLoss(t, &c, leaf);
  }, 1e-5);
}

TEST(GradCheck, ConsistencyLossAsymmetricSparse) {
  Rng rng(15);
  std::vector<Triplet> trip;
  for (int i = 0; i < 10; ++i) {
    trip.push_back({rng.UniformInt(5), rng.UniformInt(5),
                    rng.Uniform(0.1, 0.4)});
  }
  SparseMatrix c = SparseMatrix::FromTriplets(5, 5, trip);
  Matrix h = Matrix::Gaussian(5, 3, &rng, 0.5);
  CheckGradient(h, [&](Tape* t, Var leaf) {
    return ag::ConsistencyLoss(t, &c, leaf);
  }, 1e-5);
}

TEST(GradCheck, AdaptivityLossOnA) {
  Rng rng(16);
  Matrix a = Matrix::Gaussian(5, 3, &rng, 0.2);
  Matrix b = Matrix::Gaussian(5, 3, &rng, 0.2);
  std::vector<int64_t> corr{2, 0, 1, 4, 3};
  CheckGradient(a, [&](Tape* t, Var leaf) {
    Var bv = t->Leaf(b, false);
    return ag::AdaptivityLoss(t, leaf, bv, corr, /*threshold=*/10.0);
  }, 1e-5);
}

TEST(GradCheck, AdaptivityLossOnB) {
  Rng rng(17);
  Matrix a = Matrix::Gaussian(5, 3, &rng, 0.2);
  Matrix b = Matrix::Gaussian(5, 3, &rng, 0.2);
  std::vector<int64_t> corr{2, 0, 1, 4, 3};
  CheckGradient(b, [&](Tape* t, Var leaf) {
    Var av = t->Leaf(a, false);
    return ag::AdaptivityLoss(t, av, leaf, corr, /*threshold=*/10.0);
  }, 1e-5);
}

TEST(GradCheck, AnchorLossOnA) {
  Rng rng(30);
  Matrix a = Matrix::Gaussian(6, 3, &rng, 0.3);
  Matrix b = Matrix::Gaussian(5, 3, &rng, 0.3);
  std::vector<std::pair<int64_t, int64_t>> pairs{{0, 2}, {3, 4}, {5, 0}};
  CheckGradient(a, [&](Tape* t, Var leaf) {
    Var bv = t->Leaf(b, false);
    return ag::AnchorLoss(t, leaf, bv, pairs);
  }, 1e-5);
}

TEST(GradCheck, AnchorLossOnB) {
  Rng rng(31);
  Matrix a = Matrix::Gaussian(6, 3, &rng, 0.3);
  Matrix b = Matrix::Gaussian(5, 3, &rng, 0.3);
  std::vector<std::pair<int64_t, int64_t>> pairs{{1, 1}, {2, 3}};
  CheckGradient(b, [&](Tape* t, Var leaf) {
    Var av = t->Leaf(a, false);
    return ag::AnchorLoss(t, av, leaf, pairs);
  }, 1e-5);
}

TEST(AnchorLossTest, ValueIsSumOfPairDistances) {
  Tape t;
  Matrix a{{0, 0}, {1, 0}};
  Matrix b{{3, 4}, {1, 0}};
  Var av = t.Leaf(a, true);
  Var bv = t.Leaf(b, false);
  std::vector<std::pair<int64_t, int64_t>> pairs{{0, 0}, {1, 1}};
  Var loss = ag::AnchorLoss(&t, av, bv, pairs);
  EXPECT_NEAR(t.value(loss)(0, 0), 5.0 + 0.0, 1e-12);
}

TEST(AdaptivityLossTest, ThresholdMasksLargeDistances) {
  Tape t;
  Matrix a{{0, 0}, {0, 0}};
  Matrix b{{3, 4}, {0.1, 0}};  // distances 5 and 0.1
  Var av = t.Leaf(a, true);
  Var bv = t.Leaf(b, false);
  std::vector<int64_t> corr{0, 1};
  Var loss = ag::AdaptivityLoss(&t, av, bv, corr, /*threshold=*/1.0);
  // Only the 0.1 distance survives the sigma_< mask.
  EXPECT_NEAR(t.value(loss)(0, 0), 0.1, 1e-12);
  t.Backward(loss);
  // Masked row contributes zero gradient.
  EXPECT_DOUBLE_EQ(t.grad(av)(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t.grad(av)(0, 1), 0.0);
  EXPECT_NE(t.grad(av)(1, 0), 0.0);
}

TEST(ConsistencyLossTest, PerfectGramGivesZeroLoss) {
  // If C == H H^T exactly, the loss must be ~0.
  Matrix h{{1, 0}, {0, 1}};
  std::vector<Triplet> trip{{0, 0, 1.0}, {1, 1, 1.0}};
  SparseMatrix c = SparseMatrix::FromTriplets(2, 2, trip);
  Tape t;
  Var hv = t.Leaf(h, true);
  Var loss = ag::ConsistencyLoss(&t, &c, hv);
  EXPECT_NEAR(t.value(loss)(0, 0), 0.0, 1e-9);
}

TEST(ConsistencyLossTest, MatchesDenseFormula) {
  Rng rng(18);
  std::vector<Triplet> trip;
  for (int i = 0; i < 8; ++i) {
    int64_t u = rng.UniformInt(4), v = rng.UniformInt(4);
    double val = rng.Uniform(0.1, 0.5);
    trip.push_back({u, v, val});
    trip.push_back({v, u, val});
  }
  SparseMatrix c = SparseMatrix::FromTriplets(4, 4, trip);
  Matrix h = Matrix::Gaussian(4, 3, &rng, 0.4);
  Tape t;
  Var hv = t.Leaf(h, false);
  Var loss = ag::ConsistencyLoss(&t, &c, hv);
  Matrix dense_diff = Sub(c.ToDense(), MatMulTransposedB(h, h));
  EXPECT_NEAR(t.value(loss)(0, 0), dense_diff.FrobeniusNorm(), 1e-9);
}

}  // namespace
}  // namespace galign
