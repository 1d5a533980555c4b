// Unit tests for the ANN retrieval layer (DESIGN.md §11): the LSH index's
// construction/query contracts, determinism, truncation under cancellation,
// budget admission, the concat reduction, the routing policy, and the
// serialized recipe (both layout versions). The recall *property*
// (measured recall >= target on generated workloads) lives in
// ann_recall_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/ann/ann.h"
#include "graph/ann/ann_index.h"
#include "graph/ann/ann_io.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"

namespace galign {
namespace {

Matrix UnitRows(int64_t n, int64_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix m = Matrix::Gaussian(n, d, &rng);
  m.NormalizeRows();
  return m;
}

TEST(AnnIndexTest, SelfQueryRecoversSelfTop1) {
  // Querying the indexed rows themselves: every unit row's best inner
  // product is itself (similarity 1), a retrieval-sanity floor the index
  // must clear on a small base.
  const Matrix base = UnitRows(200, 16, 7);
  auto index = BuildAnnIndex(base, AnnConfig(), RunContext());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.ValueOrDie()->size(), 200);
  EXPECT_EQ(index.ValueOrDie()->dim(), 16);
  EXPECT_FALSE(index.ValueOrDie()->truncated());
  EXPECT_GT(index.ValueOrDie()->MemoryBytes(), 0u);
  auto topk = index.ValueOrDie()->QueryBatch(base, 5);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  const TopKAlignment& a = topk.ValueOrDie();
  EXPECT_EQ(a.rows_computed, 200);
  int hits = 0;
  for (int64_t v = 0; v < a.rows; ++v) {
    if (a.Top1(v) == v) ++hits;
    // Scores descend within each row; indices stay in range.
    for (int64_t j = 0; j < a.k; ++j) {
      EXPECT_LT(a.index[v * a.k + j], 200);
      if (j > 0 && a.index[v * a.k + j] >= 0) {
        EXPECT_LE(a.score[v * a.k + j], a.score[v * a.k + j - 1]);
      }
    }
  }
  EXPECT_EQ(hits, 200);
}

TEST(AnnIndexTest, DeterministicAcrossRebuilds) {
  const Matrix base = UnitRows(150, 12, 11);
  const Matrix queries = UnitRows(40, 12, 13);
  auto i1 = BuildAnnIndex(base, AnnConfig(), RunContext());
  auto i2 = BuildAnnIndex(base, AnnConfig(), RunContext());
  ASSERT_TRUE(i1.ok() && i2.ok());
  auto r1 = i1.ValueOrDie()->QueryBatch(queries, 7);
  auto r2 = i2.ValueOrDie()->QueryBatch(queries, 7);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.ValueOrDie().index, r2.ValueOrDie().index);
  EXPECT_EQ(r1.ValueOrDie().score, r2.ValueOrDie().score);
}

TEST(AnnIndexTest, KLargerThanIndexClampsWithPadding) {
  const Matrix base = UnitRows(6, 8, 3);
  const Matrix queries = UnitRows(4, 8, 5);
  auto index = BuildAnnIndex(base, AnnConfig(), RunContext());
  ASSERT_TRUE(index.ok());
  auto topk = index.ValueOrDie()->QueryBatch(queries, 50);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  const TopKAlignment& a = topk.ValueOrDie();
  EXPECT_LE(a.k, 6);
  for (int64_t i = 0; i < a.rows * a.k; ++i) {
    EXPECT_GE(a.index[i], -1);
    EXPECT_LT(a.index[i], 6);
  }
}

TEST(AnnIndexTest, EmptyBaseAndEmptyQueriesStayClean) {
  auto index = BuildAnnIndex(Matrix(0, 8), AnnConfig(), RunContext());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index.ValueOrDie()->size(), 0);
  auto topk = index.ValueOrDie()->QueryBatch(UnitRows(3, 8, 1), 4);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk.ValueOrDie().rows_computed, 3);
  for (int64_t idx : topk.ValueOrDie().index) EXPECT_EQ(idx, -1);

  auto full = BuildAnnIndex(UnitRows(5, 8, 2), AnnConfig(), RunContext());
  ASSERT_TRUE(full.ok());
  auto none = full.ValueOrDie()->QueryBatch(Matrix(0, 8), 4);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.ValueOrDie().rows, 0);
}

TEST(AnnIndexTest, CancelledBuildYieldsTruncatedButServingIndex) {
  CancelToken token;
  token.Cancel();
  RunContext ctx = RunContext().SetToken(token);
  const Matrix base = UnitRows(100, 8, 17);
  auto index = BuildAnnIndex(base, AnnConfig(), ctx);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_TRUE(index.ValueOrDie()->truncated());
  EXPECT_LT(index.ValueOrDie()->size(), 100);
  // The truncated index still answers over the inserted prefix.
  auto topk = index.ValueOrDie()->QueryBatch(UnitRows(5, 8, 19), 3);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
}

TEST(AnnIndexTest, CancelledQueryWindsDownWithPartialRows) {
  const Matrix base = UnitRows(300, 8, 23);
  const Matrix queries = UnitRows(600, 8, 29);
  auto index = BuildAnnIndex(base, AnnConfig(), RunContext());
  ASSERT_TRUE(index.ok());
  CancelToken token;
  token.Cancel();
  RunContext ctx = RunContext().SetToken(token);
  auto topk = index.ValueOrDie()->QueryBatch(queries, 3, ctx);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  const TopKAlignment& a = topk.ValueOrDie();
  EXPECT_EQ(a.rows_computed, 0);
  for (int64_t idx : a.index) EXPECT_EQ(idx, -1);
}

TEST(AnnIndexTest, TinyBudgetIsRefusedCleanly) {
  const Matrix base = UnitRows(4096, 32, 31);
  RunContext ctx = RunContext::WithMemoryBudget(16 << 10);
  auto index = BuildAnnIndex(base, AnnConfig(), ctx);
  EXPECT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kResourceExhausted);
}

TEST(AnnIndexTest, EstimateCoversActualFootprint) {
  const Matrix base = UnitRows(2000, 16, 37);
  const AnnConfig cfg;
  auto index = BuildAnnIndex(base, cfg, RunContext());
  ASSERT_TRUE(index.ok());
  EXPECT_LE(index.ValueOrDie()->MemoryBytes(),
            EstimateAnnIndexBytes(2000, 16, cfg));
}

TEST(AnnConfigTest, EffectiveLshBitsAutoAndClamp) {
  AnnConfig cfg;
  cfg.lsh_bits = 0;
  EXPECT_EQ(EffectiveLshBits(cfg, 0), 4);      // floor
  EXPECT_EQ(EffectiveLshBits(cfg, 16), 4);     // 2^4 = 16
  EXPECT_EQ(EffectiveLshBits(cfg, 17), 5);
  EXPECT_EQ(EffectiveLshBits(cfg, 1 << 20), 20);  // cap
  cfg.lsh_bits = 40;
  EXPECT_EQ(EffectiveLshBits(cfg, 100), 20);   // explicit value clamped
  cfg.lsh_bits = 6;
  EXPECT_EQ(EffectiveLshBits(cfg, 1 << 20), 6);
}

TEST(AnnPolicyTest, ShouldUseAnnRespectsModeAndThreshold) {
  AnnPolicy policy;
  policy.min_rows = 100;
  policy.mode = AnnMode::kOff;
  EXPECT_FALSE(ShouldUseAnn(policy, 1000, 1000));
  policy.mode = AnnMode::kOn;
  EXPECT_TRUE(ShouldUseAnn(policy, 10, 10));
  EXPECT_FALSE(ShouldUseAnn(policy, 0, 10));
  policy.mode = AnnMode::kAuto;
  EXPECT_FALSE(ShouldUseAnn(policy, 99, 1000));
  EXPECT_FALSE(ShouldUseAnn(policy, 1000, 99));
  EXPECT_TRUE(ShouldUseAnn(policy, 100, 100));
}

TEST(AnnPolicyTest, EffortScalesWithRecallTarget) {
  AnnPolicy policy;
  policy.config.lsh_probes = 10;
  policy.recall_target = 0.98;
  EXPECT_EQ(EffortScaledConfig(policy).lsh_probes, 10);
  policy.recall_target = 0.995;
  EXPECT_EQ(EffortScaledConfig(policy).lsh_probes, 20);
  policy.recall_target = 0.999;
  EXPECT_EQ(EffortScaledConfig(policy).lsh_probes, 30);
}

TEST(AnnConcatTest, ConcatLayerRowsScalesQuerySideOnly) {
  Matrix a(3, 2);
  Matrix b(3, 1);
  for (int64_t r = 0; r < 3; ++r) {
    a(r, 0) = r + 1;
    a(r, 1) = 2 * (r + 1);
    b(r, 0) = 10.0 * (r + 1);
  }
  std::vector<double> scale = {0.5, 2.0};
  auto out = ConcatLayerRows({a, b}, &scale, nullptr);
  ASSERT_TRUE(out.ok());
  const Matrix& m = out.ValueOrDie();
  ASSERT_EQ(m.rows(), 3);
  ASSERT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.5 * 2.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.5 * 4.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 2.0 * 20.0);
  auto unscaled = ConcatLayerRows({a, b}, nullptr, nullptr);
  ASSERT_TRUE(unscaled.ok());
  EXPECT_DOUBLE_EQ(unscaled.ValueOrDie()(2, 2), 30.0);

  Matrix mismatched(2, 2);
  EXPECT_FALSE(ConcatLayerRows({a, mismatched}, nullptr, nullptr).ok());
  EXPECT_FALSE(ConcatLayerRows({}, nullptr, nullptr).ok());
}

TEST(AnnEmbeddingTest, MatchesChunkedContractOnMultiOrderInput) {
  // Two-layer multi-order input with non-uniform theta: the ANN route must
  // produce the same shape/ordering contract as ChunkedEmbeddingTopK and —
  // at full search effort on a small problem — the same top-1 matches.
  std::vector<Matrix> hs = {UnitRows(120, 8, 41), UnitRows(120, 8, 43)};
  std::vector<Matrix> ht = {UnitRows(90, 8, 47), UnitRows(90, 8, 53)};
  const std::vector<double> theta = {0.7, 0.3};
  auto exact = ChunkedEmbeddingTopK(hs, ht, theta, 5, RunContext());
  ASSERT_TRUE(exact.ok());
  AnnPolicy policy;
  policy.mode = AnnMode::kOn;
  // Exhaustive effort on a toy problem: probe everything.
  policy.config.lsh_probes = 1 << 10;
  auto ann = AnnEmbeddingTopK(hs, ht, theta, 5, policy, RunContext());
  ASSERT_TRUE(ann.ok()) << ann.status().ToString();
  const TopKAlignment& a = ann.ValueOrDie();
  const TopKAlignment& e = exact.ValueOrDie();
  EXPECT_EQ(a.rows, e.rows);
  EXPECT_EQ(a.cols, e.cols);
  EXPECT_EQ(a.k, e.k);
  int top1_matches = 0;
  for (int64_t v = 0; v < a.rows; ++v) {
    if (a.Top1(v) == e.Top1(v)) ++top1_matches;
  }
  EXPECT_GE(top1_matches, 114);  // >= 95% at exhaustive effort
}

TEST(AnnEmbeddingTest, RejectsMalformedInput) {
  AnnPolicy policy;
  policy.mode = AnnMode::kOn;
  std::vector<Matrix> hs = {UnitRows(10, 4, 1)};
  std::vector<Matrix> ht = {UnitRows(8, 4, 2)};
  EXPECT_FALSE(AnnEmbeddingTopK(hs, ht, {1.0, 2.0}, 3, policy, RunContext())
                   .ok());  // theta size mismatch
  EXPECT_FALSE(AnnEmbeddingTopK({}, {}, {}, 3, policy, RunContext()).ok());
  EXPECT_FALSE(AnnEmbeddingTopK(hs, ht, {1.0}, 0, policy, RunContext()).ok());
  std::vector<Matrix> ht_wrong_dim = {UnitRows(8, 6, 2)};
  EXPECT_FALSE(
      AnnEmbeddingTopK(hs, ht_wrong_dim, {1.0}, 3, policy, RunContext()).ok());
}

// --- Recipe (graph/ann/ann_io.h) -------------------------------------------

// Replaces the value on the `key` line of a serialized recipe.
std::string WithRecipeValue(std::string recipe, const std::string& key,
                            const std::string& value) {
  const size_t at = recipe.find("\n" + key + " ");
  if (at == std::string::npos) return recipe;
  const size_t from = at + key.size() + 2;
  return recipe.replace(from, recipe.find('\n', from) - from, value);
}

// Rewrites a v2 recipe into the v1 layout earlier builds published: the v1
// magic, a backend line after it, and three HNSW knobs after lsh_probes.
std::string AsV1Recipe(std::string recipe, const std::string& backend) {
  const std::string v2_magic = "galign-ann-recipe-v2\n";
  if (recipe.rfind(v2_magic, 0) != 0) return recipe;
  recipe.replace(0, v2_magic.size(),
                 "galign-ann-recipe-v1\nbackend " + backend + "\n");
  const size_t probes = recipe.find("\nlsh_probes ");
  const size_t eol = recipe.find('\n', probes + 1);
  return recipe.insert(
      eol + 1, "hnsw_degree 12\nhnsw_ef_construction 96\nhnsw_ef_search 96\n");
}

// A default index over a small base and its serialized (v2) recipe.
class AnnRecipeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto index = BuildAnnIndex(base_, AnnConfig(), RunContext());
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = index.MoveValueOrDie();
    recipe_ = SerializeAnnRecipe(*index_);
  }

  const Matrix base_ = UnitRows(64, 8, 61);
  std::unique_ptr<AnnIndex> index_;
  std::string recipe_;
};

TEST_F(AnnRecipeTest, CurrentLayoutCarriesNoBackendKeys) {
  EXPECT_EQ(recipe_.rfind("galign-ann-recipe-v2\n", 0), 0u) << recipe_;
  EXPECT_EQ(recipe_.find("backend"), std::string::npos) << recipe_;
  EXPECT_EQ(recipe_.find("hnsw"), std::string::npos) << recipe_;
}

TEST_F(AnnRecipeTest, V1LshRecipeRebuildsAndVerifies) {
  // An artifact published before the recipe lost its backend keys must
  // still load: its fingerprint verifies against today's LSH build.
  const std::string v1 = AsV1Recipe(recipe_, "lsh");
  ASSERT_NE(v1.find("hnsw_ef_search 96\nrows 64\n"), std::string::npos)
      << v1;
  auto rebuilt = RebuildAnnIndex(v1, base_, RunContext(), "v1 recipe");
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(AnnIndexFingerprint(*rebuilt.ValueOrDie()),
            AnnIndexFingerprint(*index_));
}

TEST_F(AnnRecipeTest, V1HnswRecipeIsTypedIOErrorNamingIt) {
  auto r = RebuildAnnIndex(AsV1Recipe(recipe_, "hnsw"), base_, RunContext(),
                           "v1 recipe");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("hnsw"), std::string::npos)
      << r.status().message();
}

TEST_F(AnnRecipeTest, TableCountOutsideBoundIsTypedIOError) {
  // lsh_tables comes from disk and sizes the hyperplane matrix: 10^16
  // tables would ask for exabytes, which must be a typed IOError rather
  // than bad_alloc escaping the loader.
  for (const char* tables : {"10000000000000000", "0", "65"}) {
    auto r = RebuildAnnIndex(WithRecipeValue(recipe_, "lsh_tables", tables),
                             base_, RunContext(), "hostile recipe");
    ASSERT_FALSE(r.ok()) << tables;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError) << tables;
    EXPECT_NE(r.status().message().find("lsh_tables"), std::string::npos)
        << r.status().message();
  }
  // Both ends of the bound still round-trip.
  for (int64_t tables : {1, 64}) {
    AnnConfig cfg;
    cfg.lsh_tables = tables;
    auto edge = BuildAnnIndex(base_, cfg, RunContext());
    ASSERT_TRUE(edge.ok()) << edge.status().ToString();
    auto r = RebuildAnnIndex(SerializeAnnRecipe(*edge.ValueOrDie()), base_,
                             RunContext(), "recipe at the bound");
    EXPECT_TRUE(r.ok()) << tables << ": " << r.status().ToString();
  }
}

}  // namespace
}  // namespace galign
