#include "la/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "la/sparse.h"

namespace galign {
namespace {

Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (int64_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  }
  return c;
}

TEST(OpsTest, MatMulSmallKnown) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

// Parameterized cross-check of all GEMM variants against the naive kernel.
class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, VariantsAgreeWithNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + n);
  Matrix a = Matrix::Gaussian(m, k, &rng);
  Matrix b = Matrix::Gaussian(k, n, &rng);
  Matrix expected = NaiveMatMul(a, b);

  EXPECT_LT(Matrix::MaxAbsDiff(MatMul(a, b), expected), 1e-10);
  EXPECT_LT(Matrix::MaxAbsDiff(MatMulTransposedB(a, Transpose(b)), expected),
            1e-10);
  EXPECT_LT(Matrix::MaxAbsDiff(MatMulTransposedA(Transpose(a), b), expected),
            1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                      std::make_tuple(17, 9, 23), std::make_tuple(64, 64, 64),
                      std::make_tuple(130, 7, 130),
                      std::make_tuple(5, 200, 5)));

double FrobDiff(const Matrix& a, const Matrix& b) {
  EXPECT_TRUE(a.SameShape(b));
  double s = 0.0;
  for (int64_t i = 0; i < a.size(); ++i) {
    const double d = a.data()[i] - b.data()[i];
    s += d * d;
  }
  return std::sqrt(s);
}

// Blocked kernels vs. the retained naive references, on shapes chosen to
// exercise every fringe of the blocking scheme: empty extents, single
// elements, micro-tile remainders (non-multiples of 8/24), and dimensions
// crossing the MC=96 / KC=256 / NC=1008 panel boundaries.
TEST(BlockedGemmTest, MatchesReferenceAcrossShapes) {
  const std::vector<std::tuple<int64_t, int64_t, int64_t>> shapes = {
      {0, 5, 3},   {4, 0, 3},    {3, 5, 0},    {1, 1, 1},    {2, 3, 1},
      {4, 8, 8},   {5, 9, 11},   {96, 16, 64}, {97, 13, 130}, {33, 257, 9},
      {7, 300, 1029}, {100, 128, 100}, {130, 70, 1025}};
  for (const auto& [m, k, n] : shapes) {
    Rng rng(1000 + m * 31 + k * 7 + n);
    Matrix a = Matrix::Gaussian(m, k, &rng);
    Matrix b = Matrix::Gaussian(k, n, &rng);
    Matrix at = Transpose(a);
    Matrix bt = Transpose(b);
    const Matrix expected = reference::MatMul(a, b);
    EXPECT_LT(FrobDiff(MatMul(a, b), expected), 1e-9)
        << "MatMul " << m << "x" << k << "x" << n;
    EXPECT_LT(FrobDiff(MatMulTransposedB(a, bt), expected), 1e-9)
        << "MatMulTransposedB " << m << "x" << k << "x" << n;
    EXPECT_LT(FrobDiff(MatMulTransposedA(at, b), expected), 1e-9)
        << "MatMulTransposedA " << m << "x" << k << "x" << n;
  }
}

TEST(BlockedGemmTest, IntoReusesAndAccumulates) {
  Rng rng(7);
  Matrix a = Matrix::Gaussian(37, 19, &rng);
  Matrix b = Matrix::Gaussian(19, 41, &rng);
  const Matrix expected = reference::MatMul(a, b);
  // Wrong-shaped out is resized; a second accumulate pass doubles it.
  Matrix out(3, 2, 99.0);
  MatMulInto(a, b, &out);
  EXPECT_LT(FrobDiff(out, expected), 1e-9);
  MatMulInto(a, b, &out, /*accumulate=*/true);
  Matrix doubled = expected;
  doubled.Scale(2.0);
  EXPECT_LT(FrobDiff(out, doubled), 1e-9);

  Matrix out_bt(37, 41, -5.0);
  MatMulTransposedBInto(a, Transpose(b), &out_bt);
  EXPECT_LT(FrobDiff(out_bt, expected), 1e-9);
  Matrix out_at;
  MatMulTransposedAInto(Transpose(a), b, &out_at);
  EXPECT_LT(FrobDiff(out_at, expected), 1e-9);
}

// ParallelFor partitioning must not leak into results: every output tile is
// owned by one task with a fixed accumulation order, so two runs must agree
// bit for bit.
TEST(BlockedGemmTest, RunToRunDeterministic) {
  Rng rng(11);
  Matrix a = Matrix::Gaussian(201, 130, &rng);
  Matrix b = Matrix::Gaussian(130, 99, &rng);
  Matrix c1 = MatMul(a, b);
  Matrix c2 = MatMul(a, b);
  ASSERT_TRUE(c1.SameShape(c2));
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(double)), 0);
  Matrix s1 = MatMulTransposedB(a, Transpose(b));
  Matrix s2 = MatMulTransposedB(a, Transpose(b));
  EXPECT_EQ(std::memcmp(s1.data(), s2.data(), s1.size() * sizeof(double)), 0);
}

// Whether this build contracts a scalar `c + a * b` into one fused
// multiply-add (an FMA target at -O2 and above). The GEMM kernels' `acc +=
// a * b` statements follow the same rule. The operands are read through
// volatile so the expression is evaluated at run time, as compiled.
bool BuildFusesMulAdd() {
  volatile double va = 1.0 + 0x1p-30;
  volatile double vc = -1.0;
  const double a = va, c = vc;
  // Unfused, a * a rounds to 1 + 2^-29 and the sum is 2^-29; fused, the
  // exact product keeps its 2^-60 term.
  return c + a * a != 0x1p-29;
}

// The blocked kernels' exact operation order: each output element is an
// `acc += a * b` chain over p ascending inside each 256-wide k-panel,
// started from zero, and the panel sums are added to `base` (or, without a
// base, to the first panel sum) in panel order. a is m x k, b is k x n.
// The chain is spelled with std::fma when the build fuses, because the
// compiler may vectorize this loop's products apart from its serial sum.
Matrix PanelOrderMatMul(const Matrix& a, const Matrix& b,
                        const Matrix* base = nullptr) {
  constexpr int64_t kPanel = 256;
  const bool fused = BuildFusesMulAdd();
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double out = base != nullptr ? (*base)(i, j) : 0.0;
      for (int64_t p0 = 0; p0 < k; p0 += kPanel) {
        double acc = 0.0;
        for (int64_t p = p0; p < std::min(k, p0 + kPanel); ++p) {
          acc = fused ? std::fma(a(i, p), b(p, j), acc)
                      : acc + a(i, p) * b(p, j);
        }
        out = base == nullptr && p0 == 0 ? acc : out + acc;
      }
      c(i, j) = out;
    }
  }
  return c;
}

::testing::AssertionResult BitIdentical(const Matrix& got,
                                        const Matrix& want) {
  if (!got.SameShape(want)) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs "
           << want.rows() << "x" << want.cols();
  }
  for (int64_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "entry (" << i / got.cols() << ", " << i % got.cols()
             << "): " << got.data()[i] << " vs " << want.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Tile and panel sizes (8x24 or 4x8 micro-tiles, MC=96, NC=1008 or 1024)
// must not change a bit of the result: only the 256-wide k-panels fix the
// operation order. Shapes sit on both sides of every tile, block and panel
// edge of either build.
TEST(BlockedGemmTest, BitIdenticalToPanelOrderReference) {
  const std::vector<std::tuple<int64_t, int64_t, int64_t>> shapes = {
      {1, 1, 1},     {7, 255, 23},   {8, 256, 24},   {9, 257, 25},
      {16, 1, 48},   {95, 300, 47},  {96, 512, 1008}, {97, 513, 1009},
      {3, 768, 200}, {193, 40, 1017}, {24, 1100, 8},  {5, 260, 1025}};
  for (const auto& [m, k, n] : shapes) {
    Rng rng(2000 + m * 31 + k * 7 + n);
    Matrix a = Matrix::Gaussian(m, k, &rng);
    Matrix b = Matrix::Gaussian(k, n, &rng);
    const Matrix want = PanelOrderMatMul(a, b);
    EXPECT_TRUE(BitIdentical(MatMul(a, b), want))
        << "MatMul " << m << "x" << k << "x" << n;
    EXPECT_TRUE(BitIdentical(MatMulTransposedB(a, Transpose(b)), want))
        << "MatMulTransposedB " << m << "x" << k << "x" << n;
    EXPECT_TRUE(BitIdentical(MatMulTransposedA(Transpose(a), b), want))
        << "MatMulTransposedA " << m << "x" << k << "x" << n;
    // Accumulating adds each panel sum to the existing output in order.
    const Matrix base = Matrix::Gaussian(m, n, &rng);
    Matrix acc = base;
    MatMulInto(a, b, &acc, /*accumulate=*/true);
    EXPECT_TRUE(BitIdentical(acc, PanelOrderMatMul(a, b, &base)))
        << "MatMulInto accumulate " << m << "x" << k << "x" << n;
  }
}

// Runs f on a pool task, where a nested ParallelFor runs its whole range
// inline: a kernel must give the same bits there as from outside the pool.
template <typename F>
void RunInsidePoolTask(const F& f) {
  ParallelFor(
      0, 2,
      [&](int64_t i0, int64_t) {
        if (i0 == 0) f();
      },
      /*min_chunk=*/1);
}

// An m x k operand with about `density` of its entries N(0, 1) and the rest
// zero, plus the structure the sparse product must handle: an empty first
// row, an empty last column, and, in every other row, an empty second
// k-panel (columns 256-511).
Matrix SparseOperand(int64_t m, int64_t k, double density, Rng* rng) {
  Matrix a(m, k);
  for (int64_t i = 1; i < m; ++i) {
    for (int64_t p = 0; p + 1 < k; ++p) {
      if (i % 2 == 1 && p >= 256 && p < 512) continue;
      if (rng->Uniform() < density) a(i, p) = rng->Normal();
    }
  }
  return a;
}

// The sparse-A products must reproduce the dense kernels' panel order bit
// for bit in both forms, overwriting and accumulating, on shapes on both
// sides of the 256-wide k-panel edges. The accumulate base holds -0.0
// entries, which adding a +0 panel sum turns into +0.0.
TEST(SparseGemmTest, BitIdenticalToPanelOrderReference) {
  const std::vector<std::tuple<int64_t, int64_t, int64_t>> shapes = {
      {1, 1, 1},    {7, 255, 23}, {9, 256, 25},  {12, 257, 8},
      {33, 538, 200}, {40, 800, 17}, {5, 1100, 3}, {6, 0, 4}};
  for (const auto& [m, k, n] : shapes) {
    for (double density : {0.02, 0.3, 1.0}) {
      SCOPED_TRACE(::testing::Message() << m << "x" << k << "x" << n
                                        << " density " << density);
      Rng rng(4000 + m * 31 + k * 7 + n);
      const Matrix a = SparseOperand(m, k, density, &rng);
      const Matrix b = Matrix::Gaussian(k, n, &rng);
      Matrix base = Matrix::Gaussian(m, n, &rng);
      for (int64_t i = 0; i < base.size(); i += 3) base.data()[i] = -0.0;
      const SparseMatrix csr = SparseMatrix::FromDense(a);
      const SparseMatrix csr_t = SparseMatrix::FromDense(Transpose(a));
      const Matrix want = PanelOrderMatMul(a, b);
      const Matrix want_acc = PanelOrderMatMul(a, b, &base);

      Matrix got(3, 3, 7.0);  // reshaped and overwritten
      MatMulInto(csr, b, &got);
      EXPECT_TRUE(BitIdentical(got, want)) << "A * B";
      Matrix acc = base;
      MatMulInto(csr, b, &acc, /*accumulate=*/true);
      EXPECT_TRUE(BitIdentical(acc, want_acc)) << "A * B accumulate";
      MatMulTransposedAInto(csr_t, b, &got);
      EXPECT_TRUE(BitIdentical(got, want)) << "A^T * B";
      acc = base;
      MatMulTransposedAInto(csr_t, b, &acc, /*accumulate=*/true);
      EXPECT_TRUE(BitIdentical(acc, want_acc)) << "A^T * B accumulate";
    }
  }
}

// A NaN or Inf in the dense operand reaches outputs through zero entries of
// A too (0 * Inf is NaN), so the sparse products must then equal the dense
// kernels, including in a row where A is all zero.
TEST(SparseGemmTest, NonFiniteDenseOperandMatchesDenseKernel) {
  Rng rng(77);
  const Matrix a = SparseOperand(20, 300, 0.05, &rng);  // row 0 is all zero
  const Matrix at = Transpose(a);
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    Matrix b = Matrix::Gaussian(300, 9, &rng);
    b(17, 4) = bad;
    b(299, 0) = -bad;
    Matrix got;
    MatMulInto(SparseMatrix::FromDense(a), b, &got);
    const Matrix want = MatMul(a, b);
    EXPECT_TRUE(BitIdentical(got, want)) << bad;
    EXPECT_TRUE(std::isnan(got(0, 4))) << "all-zero row of A, " << bad;
    MatMulTransposedAInto(SparseMatrix::FromDense(at), b, &got);
    EXPECT_TRUE(BitIdentical(got, MatMulTransposedA(at, b))) << bad;
    Matrix acc = Matrix::Gaussian(20, 9, &rng);
    Matrix acc_dense = acc;
    MatMulInto(SparseMatrix::FromDense(a), b, &acc, /*accumulate=*/true);
    MatMulInto(a, b, &acc_dense, /*accumulate=*/true);
    EXPECT_TRUE(BitIdentical(acc, acc_dense)) << "accumulate " << bad;
  }
}

// Called from a pool task, where every nested ParallelFor runs inline, the
// sparse products, Matrix::Fill and Matrix::AllFinite give the same results
// as from outside.
TEST(SparseGemmTest, SameBitsInsidePoolTask) {
  Rng rng(91);
  const Matrix a = SparseOperand(500, 538, 0.05, &rng);
  const Matrix b = Matrix::Gaussian(538, 40, &rng);
  Matrix g = Matrix::Gaussian(500, 40, &rng);
  const SparseMatrix csr = SparseMatrix::FromDense(a);
  Matrix ab, atg;
  MatMulInto(csr, b, &ab);
  MatMulTransposedAInto(csr, g, &atg);
  Matrix ab_inline, atg_inline, filled;
  bool finite_inline = false, nan_found_inline = false;
  RunInsidePoolTask([&] {
    MatMulInto(csr, b, &ab_inline);
    MatMulTransposedAInto(csr, g, &atg_inline);
    filled = Matrix::Gaussian(300, 40, &rng);
    filled.Fill(-0.0);
    finite_inline = g.AllFinite();
    g(499, 39) = std::numeric_limits<double>::quiet_NaN();
    nan_found_inline = !g.AllFinite();
  });
  EXPECT_TRUE(BitIdentical(ab_inline, ab));
  EXPECT_TRUE(BitIdentical(atg_inline, atg));
  EXPECT_TRUE(BitIdentical(filled, Matrix(300, 40, -0.0)));
  EXPECT_TRUE(finite_inline);
  EXPECT_TRUE(nan_found_inline);
  EXPECT_FALSE(g.AllFinite());
}

TEST(OpsTest, TransposeBlockedMatchesNaiveOddShapes) {
  for (auto [r, c] : std::vector<std::pair<int64_t, int64_t>>{
           {1, 1}, {5, 33}, {64, 64}, {37, 65}, {100, 3}}) {
    Rng rng(r * 100 + c);
    Matrix a = Matrix::Gaussian(r, c, &rng);
    Matrix t = Transpose(a);
    ASSERT_EQ(t.rows(), c);
    ASSERT_EQ(t.cols(), r);
    for (int64_t i = 0; i < r; ++i) {
      for (int64_t j = 0; j < c; ++j) EXPECT_EQ(t(j, i), a(i, j));
    }
  }
}

TEST(OpsTest, TransposeRoundTrip) {
  Rng rng(1);
  Matrix a = Matrix::Gaussian(7, 13, &rng);
  EXPECT_LT(Matrix::MaxAbsDiff(Transpose(Transpose(a)), a), 1e-15);
}

TEST(OpsTest, AddSubScaleHadamard) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{10, 20}, {30, 40}};
  EXPECT_DOUBLE_EQ(Add(a, b)(1, 1), 44);
  EXPECT_DOUBLE_EQ(Sub(b, a)(0, 0), 9);
  EXPECT_DOUBLE_EQ(Scale(a, -2)(0, 1), -4);
  EXPECT_DOUBLE_EQ(Hadamard(a, b)(1, 0), 90);
}

TEST(OpsTest, MapAppliesFunction) {
  Matrix a{{1, 4}, {9, 16}};
  Matrix r = Map(a, [](double v) { return std::sqrt(v); });
  EXPECT_DOUBLE_EQ(r(0, 1), 2);
  EXPECT_DOUBLE_EQ(r(1, 1), 4);
}

TEST(OpsTest, TanhMatchesStd) {
  Rng rng(2);
  Matrix a = Matrix::Gaussian(11, 7, &rng, 2.0);
  Matrix t = Tanh(a);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(t.data()[i], std::tanh(a.data()[i]));
  }
}

TEST(OpsTest, DotIsFrobeniusInner) {
  Matrix a{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(Dot(a, a), 30);
}

TEST(OpsTest, RowSquaredDistance) {
  Matrix a{{0, 0}, {3, 4}};
  EXPECT_DOUBLE_EQ(RowSquaredDistance(a, 0, a, 1), 25);
  EXPECT_DOUBLE_EQ(RowSquaredDistance(a, 1, a, 1), 0);
}

TEST(OpsTest, RowCosine) {
  Matrix a{{1, 0}, {0, 2}, {3, 3}, {0, 0}};
  EXPECT_DOUBLE_EQ(RowCosine(a, 0, a, 1), 0.0);
  EXPECT_NEAR(RowCosine(a, 0, a, 2), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(RowCosine(a, 0, a, 0), 1.0);
  EXPECT_DOUBLE_EQ(RowCosine(a, 0, a, 3), 0.0);  // zero row guard
}

TEST(OpsTest, ArgMaxAndMaxRow) {
  Matrix m{{1, 5, 3}, {9, 2, 9}};
  EXPECT_EQ(ArgMaxRow(m, 0), 1);
  EXPECT_DOUBLE_EQ(MaxRow(m, 0), 5);
  EXPECT_EQ(ArgMaxRow(m, 1), 0);  // first of ties
}

TEST(OpsTest, TopKRowOrdering) {
  Matrix m{{0.1, 0.9, 0.5, 0.7}};
  auto top = TopKRow(m, 0, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1);
  EXPECT_EQ(top[1], 3);
  EXPECT_EQ(top[2], 2);
}

TEST(OpsTest, TopKClampsToWidth) {
  Matrix m{{1.0, 2.0}};
  EXPECT_EQ(TopKRow(m, 0, 10).size(), 2u);
}

TEST(OpsTest, TopKRowMatchesSortReference) {
  Rng rng(21);
  // Duplicated values (coarse quantization) exercise the tie rule: equal
  // values rank by ascending column index.
  Matrix m(6, 200);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = std::floor(rng.Uniform(0.0, 8.0));
  }
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t k : {1, 3, 10, 199, 200}) {
      std::vector<int64_t> ref(m.cols());
      for (int64_t c = 0; c < m.cols(); ++c) ref[c] = c;
      std::sort(ref.begin(), ref.end(), [&](int64_t a, int64_t b) {
        return m(r, a) != m(r, b) ? m(r, a) > m(r, b) : a < b;
      });
      ref.resize(k);
      EXPECT_EQ(TopKRow(m, r, k), ref) << "row " << r << " k " << k;
    }
  }
}

TEST(OpsTest, TanhIntoInPlaceAndSoftmaxInto) {
  Rng rng(22);
  Matrix a = Matrix::Gaussian(9, 13, &rng, 2.0);
  Matrix expected = Tanh(a);
  Matrix inplace = a;
  TanhInto(inplace, &inplace);
  EXPECT_LT(Matrix::MaxAbsDiff(inplace, expected), 1e-15);

  Matrix sm_expected = SoftmaxRows(a);
  Matrix sm = a;
  SoftmaxRowsInto(sm, &sm);
  EXPECT_LT(Matrix::MaxAbsDiff(sm, sm_expected), 1e-15);
}

TEST(OpsTest, RankInRow) {
  Matrix m{{0.1, 0.9, 0.5, 0.7}};
  EXPECT_EQ(RankInRow(m, 0, 1), 1);
  EXPECT_EQ(RankInRow(m, 0, 3), 2);
  EXPECT_EQ(RankInRow(m, 0, 2), 3);
  EXPECT_EQ(RankInRow(m, 0, 0), 4);
}

TEST(OpsTest, RankInRowTiesUseMidRank) {
  // A constant row must NOT rank everything first (that would let a
  // degenerate all-ties alignment matrix score Success@1 = 1).
  Matrix m{{0.5, 0.5, 0.5}};
  EXPECT_EQ(RankInRow(m, 0, 1), 2);  // 1 + 0 greater + 2/2 equal
  Matrix wide(1, 101, 0.0);
  EXPECT_EQ(RankInRow(wide, 0, 50), 51);  // ~middle of the row
}

TEST(OpsTest, ConcatCols) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5}, {6}};
  Matrix c = ConcatCols({&a, &b});
  EXPECT_EQ(c.cols(), 3);
  EXPECT_DOUBLE_EQ(c(0, 2), 5);
  EXPECT_DOUBLE_EQ(c(1, 0), 3);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Matrix a = Matrix::Gaussian(5, 8, &rng, 3.0);
  Matrix s = SoftmaxRows(a);
  for (int64_t r = 0; r < 5; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 8; ++c) {
      EXPECT_GT(s(r, c), 0.0);
      sum += s(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(OpsTest, SoftmaxIsShiftInvariant) {
  Matrix a{{1000.0, 1001.0}};  // would overflow without max-shift
  Matrix s = SoftmaxRows(a);
  EXPECT_NEAR(s(0, 1), 1.0 / (1.0 + std::exp(-1.0)), 1e-12);
}

}  // namespace
}  // namespace galign
