#include "core/refinement.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>
#include <string>

#include "core/trainer.h"
#include "graph/generators.h"
#include "graph/noise.h"
#include "la/ops.h"

namespace galign {
namespace {

TEST(AggregateAlignmentTest, MatchesManualSum) {
  Rng rng(1);
  std::vector<Matrix> hs{Matrix::Gaussian(4, 3, &rng),
                         Matrix::Gaussian(4, 3, &rng)};
  std::vector<Matrix> ht{Matrix::Gaussian(5, 3, &rng),
                         Matrix::Gaussian(5, 3, &rng)};
  std::vector<double> theta{0.3, 0.7};
  Matrix s = AggregateAlignment(hs, ht, theta);
  Matrix expected = Scale(MatMulTransposedB(hs[0], ht[0]), 0.3);
  expected.Axpy(0.7, MatMulTransposedB(hs[1], ht[1]));
  EXPECT_LT(Matrix::MaxAbsDiff(s, expected), 1e-12);
}

TEST(AggregateAlignmentTest, ZeroWeightSkipsLayer) {
  Rng rng(2);
  std::vector<Matrix> hs{Matrix::Gaussian(3, 2, &rng),
                         Matrix::Gaussian(3, 2, &rng)};
  std::vector<Matrix> ht{Matrix::Gaussian(3, 2, &rng),
                         Matrix::Gaussian(3, 2, &rng)};
  Matrix only_last = AggregateAlignment(hs, ht, {0.0, 1.0});
  EXPECT_LT(Matrix::MaxAbsDiff(only_last, MatMulTransposedB(hs[1], ht[1])),
            1e-12);
}

TEST(ScanStabilityTest, AggregateScoreMatchesDense) {
  Rng rng(3);
  std::vector<Matrix> hs{Matrix::Gaussian(30, 4, &rng),
                         Matrix::Gaussian(30, 4, &rng)};
  std::vector<Matrix> ht{Matrix::Gaussian(20, 4, &rng),
                         Matrix::Gaussian(20, 4, &rng)};
  std::vector<double> theta{0.5, 0.5};
  Matrix s = AggregateAlignment(hs, ht, theta);
  double expected = 0.0;
  for (int64_t v = 0; v < 30; ++v) expected += MaxRow(s, v);
  StabilityScan scan = ScanStability(hs, ht, theta, 0.5);
  EXPECT_NEAR(scan.aggregate_score, expected, 1e-9);
}

TEST(ScanStabilityTest, IdenticalEmbeddingsAreAllStable) {
  // Source == target, normalized rows: self-cosine is 1 > lambda at every
  // layer, argmax consistent => all nodes stable.
  Rng rng(4);
  Matrix h = Matrix::Gaussian(15, 6, &rng);
  h.NormalizeRows();
  std::vector<Matrix> hs{h, h};
  std::vector<Matrix> ht{h, h};
  StabilityScan scan = ScanStability(hs, ht, {0.5, 0.5}, 0.94);
  EXPECT_EQ(scan.stable_source.size(), 15u);
  EXPECT_EQ(scan.stable_target.size(), 15u);
}

TEST(ScanStabilityTest, InconsistentArgmaxIsUnstable) {
  // Three layers (H0 + two GCN layers). GCN layer 1 points node 0 at
  // target 0, GCN layer 2 points it at target 1: unstable per Eq. 13.
  Matrix h0s{{1.0, 0.0}};
  Matrix h1s{{1.0, 0.0}};
  Matrix h2s{{0.0, 1.0}};
  Matrix ht_id{{1.0, 0.0}, {0.0, 1.0}};
  StabilityScan scan = ScanStability({h0s, h1s, h2s}, {ht_id, ht_id, ht_id},
                                     {0.34, 0.33, 0.33}, 0.9);
  EXPECT_TRUE(scan.stable_source.empty());
}

TEST(ScanStabilityTest, AttributeLayerArgmaxTiesDoNotBlockStability) {
  // H^(0) is tie-degenerate (identical attribute rows); the GCN layers
  // agree confidently. The node must still count as stable (layer 0 is
  // excluded from the argmax-consistency requirement).
  Matrix h0s{{1.0, 0.0}};
  Matrix h0t{{1.0, 0.0}, {1.0, 0.0}};  // both targets tie at layer 0
  Matrix h1s{{0.0, 1.0}};
  Matrix h1t{{1.0, 0.0}, {0.0, 1.0}};
  StabilityScan scan =
      ScanStability({h0s, h1s, h1s}, {h0t, h1t, h1t}, {0.34, 0.33, 0.33}, 0.9);
  ASSERT_EQ(scan.stable_source.size(), 1u);
  EXPECT_EQ(scan.stable_source[0], 0);
}

TEST(ScanStabilityTest, LowScoresAreUnstable) {
  Matrix hs{{0.5, 0.5}};
  Matrix ht{{0.5, 0.5}};
  // Cosine-ish score 0.5 < lambda 0.94.
  StabilityScan scan = ScanStability({hs}, {ht}, {1.0}, 0.94);
  EXPECT_TRUE(scan.stable_source.empty());
  EXPECT_TRUE(scan.stable_target.empty());
}

class RefinementEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(5);
    auto g = BarabasiAlbert(50, 3, &rng).MoveValueOrDie();
    Matrix f = BinaryAttributes(50, 8, 0.3, &rng);
    g = g.WithAttributes(f).MoveValueOrDie();
    NoisyCopyOptions opts;
    opts.structural_noise = 0.1;
    pair_ = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();

    cfg_.epochs = 20;
    cfg_.embedding_dim = 16;
    cfg_.refinement_iterations = 5;
    gcn_ = std::make_unique<MultiOrderGcn>(cfg_.num_layers,
                                           g.num_attributes(),
                                           cfg_.embedding_dim, &rng);
    Trainer trainer(cfg_);
    trainer.Train(gcn_.get(), pair_.source, pair_.target, &rng).CheckOK();
  }

  GAlignConfig cfg_;
  AlignmentPair pair_;
  std::unique_ptr<MultiOrderGcn> gcn_;
};

TEST_F(RefinementEndToEnd, ReturnsBestScoringIteration) {
  auto result = RefineAlignment(*gcn_, pair_.source, pair_.target, cfg_);
  ASSERT_TRUE(result.ok());
  const RefinementResult& r = result.ValueOrDie();
  EXPECT_EQ(r.score_history.size(),
            static_cast<size_t>(cfg_.refinement_iterations) + 1);
  // best_score is the max over the history (greedy keep-best, Alg. 2).
  double max_seen = -1e300;
  for (double g : r.score_history) max_seen = std::max(max_seen, g);
  EXPECT_NEAR(r.best_score, max_seen, 1e-9);
  EXPECT_EQ(r.alignment.rows(), pair_.source.num_nodes());
  EXPECT_EQ(r.alignment.cols(), pair_.target.num_nodes());
  EXPECT_TRUE(r.alignment.AllFinite());
}

TEST_F(RefinementEndToEnd, BestIterationConsistentWithHistory) {
  auto result = RefineAlignment(*gcn_, pair_.source, pair_.target, cfg_);
  ASSERT_TRUE(result.ok());
  const RefinementResult& r = result.ValueOrDie();
  EXPECT_NEAR(r.score_history[r.best_iteration], r.best_score, 1e-9);
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ScanStabilityTest, LayerZeroCacheIsBitIdentical) {
  // Starting each row block from the cached layer-0 scores must give the
  // same stable sets and the same g(S), bit for bit, as multiplying layer 0
  // in every block. 700 source rows span two 512-row blocks.
  Rng rng(8);
  std::vector<Matrix> hs, ht;
  for (int64_t d : {37, 6, 6}) {
    hs.push_back(Matrix::Gaussian(700, d, &rng));
    ht.push_back(Matrix::Gaussian(300, d, &rng));
  }
  for (const std::vector<double>& theta :
       {std::vector<double>{0.4, 0.3, 0.3}, std::vector<double>{0.0, 0.5, 0.5}}) {
    const Matrix layer0 = LayerZeroScores(hs, ht, theta);
    const StabilityScan plain = ScanStability(hs, ht, theta, 0.5);
    StabilityScanner scanner(theta, 0.5, &layer0);
    std::vector<int64_t> rows(700), cols(300);
    std::iota(rows.begin(), rows.end(), int64_t{0});
    std::iota(cols.begin(), cols.end(), int64_t{0});
    scanner.Rescan(hs, ht, {rows, rows, rows}, {cols, cols, cols});
    const StabilityScan cached = scanner.Result();
    EXPECT_EQ(cached.stable_source, plain.stable_source);
    EXPECT_EQ(cached.stable_target, plain.stable_target);
    EXPECT_EQ(std::memcmp(&cached.aggregate_score, &plain.aggregate_score,
                          sizeof(double)),
              0);
  }
}

TEST_F(RefinementEndToEnd, LayerZeroCacheMatchesUncachedRun) {
  // materialize=true scans with the layer-0 cache and builds the alignment
  // from it; materialize=false runs the uncached scan. Every iteration's
  // stable sets feed the next iteration's influence factors, so identical
  // score histories and embeddings mean identical stable sets throughout.
  auto cached = RefineAlignment(*gcn_, pair_.source, pair_.target, cfg_);
  auto plain = RefineAlignment(*gcn_, pair_.source, pair_.target, cfg_,
                               RunContext(), /*materialize=*/false);
  ASSERT_TRUE(cached.ok() && plain.ok());
  const RefinementResult& c = cached.ValueOrDie();
  const RefinementResult& p = plain.ValueOrDie();
  ASSERT_EQ(c.score_history.size(), p.score_history.size());
  EXPECT_EQ(std::memcmp(c.score_history.data(), p.score_history.data(),
                        c.score_history.size() * sizeof(double)),
            0);
  EXPECT_EQ(c.best_iteration, p.best_iteration);
  ASSERT_EQ(c.source_embeddings.size(), p.source_embeddings.size());
  for (size_t l = 0; l < c.source_embeddings.size(); ++l) {
    EXPECT_TRUE(SameBits(c.source_embeddings[l], p.source_embeddings[l]));
    EXPECT_TRUE(SameBits(c.target_embeddings[l], p.target_embeddings[l]));
  }
  EXPECT_TRUE(p.alignment.empty());
  EXPECT_TRUE(SameBits(c.alignment,
                       AggregateAlignment(p.source_embeddings,
                                          p.target_embeddings,
                                          cfg_.EffectiveLayerWeights())));
}

// --- Incremental refinement (DESIGN.md §6) ---------------------------------

using FirstMax = StabilityScanner::FirstMax;

bool SameLine(const FirstMax& a, const FirstMax& b) {
  return a.index == b.index && a.value.size() == b.value.size() &&
         std::memcmp(a.value.data(), b.value.data(),
                     a.value.size() * sizeof(double)) == 0;
}

bool SameDouble(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// A full scan with every S^(l) materialized: first maxima by strict `>` in
// ascending index order, the aggregate from AggregateAlignment, Eq. 13 over
// layers 1..k. It shares no code with StabilityScanner.
struct DenseScan {
  std::vector<FirstMax> rows, cols;  // layers 1..k
  FirstMax agg;
  StabilityScan result;

  DenseScan(const std::vector<Matrix>& hs, const std::vector<Matrix>& ht,
            const std::vector<double>& theta, double lambda) {
    const int64_t n1 = hs[0].rows(), n2 = ht[0].rows();
    for (size_t l = 1; l < hs.size(); ++l) {
      const Matrix s = MatMulTransposedB(hs[l], ht[l]);
      FirstMax r{std::vector<double>(n1, -1e300), std::vector<int64_t>(n1, -1)};
      FirstMax c{std::vector<double>(n2, -1e300), std::vector<int64_t>(n2, -1)};
      for (int64_t v = 0; v < n1; ++v) {
        for (int64_t u = 0; u < n2; ++u) {
          if (s(v, u) > r.value[v]) r.value[v] = s(v, u), r.index[v] = u;
          if (s(v, u) > c.value[u]) c.value[u] = s(v, u), c.index[u] = v;
        }
      }
      rows.push_back(std::move(r));
      cols.push_back(std::move(c));
    }
    const Matrix a = AggregateAlignment(hs, ht, theta);
    for (int64_t v = 0; v < n1; ++v) {
      const int64_t j = ArgMaxRow(a, v);
      agg.value.push_back(a(v, j));
      agg.index.push_back(j);
      result.aggregate_score += a(v, j);
    }
    auto stable = [&](const std::vector<FirstMax>& lines, int64_t i) {
      for (const FirstMax& line : lines) {
        if (line.index[i] != lines[0].index[i] || !(line.value[i] > lambda)) {
          return false;
        }
      }
      return true;
    };
    for (int64_t v = 0; v < n1; ++v) {
      if (stable(rows, v)) result.stable_source.push_back(v);
    }
    for (int64_t u = 0; u < n2; ++u) {
      if (stable(cols, u)) result.stable_target.push_back(u);
    }
  }
};

// C under influence factors alpha, as RefineAlignment builds it (Eq. 15).
SparseMatrix Propagation(const AttributedGraph& g,
                         const std::vector<double>& alpha) {
  std::vector<double> q(alpha.size());
  for (size_t i = 0; i < alpha.size(); ++i) q[i] = 1.0 / (alpha[i] * alpha[i]);
  return g.NormalizedAdjacency(q).MoveValueOrDie();
}

// Closed l-hop neighbourhoods of `changed` for l = 0..k, layer 0 empty: the
// rows whose embeddings can move when their influence factors change.
std::vector<std::vector<int64_t>> Reach(const AttributedGraph& g,
                                        const std::vector<int64_t>& changed,
                                        int k) {
  std::vector<std::vector<int64_t>> out(k + 1);
  std::set<int64_t> reach(changed.begin(), changed.end());
  for (int l = 1; l <= k && !changed.empty(); ++l) {
    std::set<int64_t> next = reach;
    for (const int64_t v : reach) {
      for (const int64_t u : g.Neighbors(v)) next.insert(u);
    }
    reach = std::move(next);
    out[l].assign(reach.begin(), reach.end());
  }
  return out;
}

void ExpectSameScan(const StabilityScanner& scanner, const DenseScan& dense,
                    const std::string& what) {
  for (size_t l = 1; l <= dense.rows.size(); ++l) {
    EXPECT_TRUE(SameLine(scanner.row_max(l), dense.rows[l - 1]))
        << what << ": row maxima of layer " << l;
    EXPECT_TRUE(SameLine(scanner.col_max(l), dense.cols[l - 1]))
        << what << ": column maxima of layer " << l;
  }
  EXPECT_TRUE(SameLine(scanner.aggregate_row_max(), dense.agg))
      << what << ": aggregate row maxima";
  const StabilityScan got = scanner.Result();
  EXPECT_EQ(got.stable_source, dense.result.stable_source) << what;
  EXPECT_EQ(got.stable_target, dense.result.stable_target) << what;
  EXPECT_TRUE(SameDouble(got.aggregate_score, dense.result.aggregate_score))
      << what << ": g(S)";
}

TEST(StabilityScannerTest, IncrementalRescanMatchesFullScanUnderInfluenceUpdates) {
  // Power-law graphs: hubs give a few nodes large 2-hop sets and most nodes
  // small ones. 700 source rows span two 512-row blocks. Some rows are
  // copies of others (twins), so rows and columns have tied maxima and the
  // lowest-index rule decides. Factors also fall (x0.5), so old maxima drop
  // and whole rows and columns must be rescanned.
  Rng rng(31);
  auto make = [&](int64_t n) {
    auto g = BarabasiAlbert(n, 2, &rng).MoveValueOrDie();
    return g.WithAttributes(BinaryAttributes(n, 6, 0.4, &rng)).MoveValueOrDie();
  };
  const AttributedGraph src = make(700);
  const AttributedGraph tgt = make(150);
  MultiOrderGcn gcn(2, 6, 8, &rng);
  const std::vector<double> theta{0.3, 0.3, 0.4};
  const double lambda = 0.9;
  const std::vector<std::pair<int64_t, int64_t>> twins_s{{3, 600}, {10, 11}};
  const std::vector<std::pair<int64_t, int64_t>> twins_t{{2, 140}, {7, 8},
                                                         {30, 31}};

  std::vector<double> alpha_s(700, 1.0), alpha_t(150, 1.0);
  // Full embeddings with twin rows copied; twins of listed rows are listed.
  auto embed = [&](const AttributedGraph& g, const std::vector<double>& alpha,
                   const std::vector<std::pair<int64_t, int64_t>>& twins,
                   std::vector<std::vector<int64_t>>* lists) {
    std::vector<Matrix> h =
        gcn.ForwardInference(Propagation(g, alpha), g.attributes());
    for (size_t l = 0; l < h.size(); ++l) {
      std::set<int64_t> listed((*lists)[l].begin(), (*lists)[l].end());
      for (const auto& [a, b] : twins) {
        std::copy(h[l].row_data(a), h[l].row_data(a) + h[l].cols(),
                  h[l].row_data(b));
        if (listed.count(a)) listed.insert(b);
      }
      (*lists)[l].assign(listed.begin(), listed.end());
    }
    return h;
  };
  std::vector<std::vector<int64_t>> rows(3), cols(3);
  for (auto* lists : {&rows, &cols}) {
    const int64_t n = lists == &rows ? 700 : 150;
    for (auto& list : *lists) {
      list.resize(n);
      std::iota(list.begin(), list.end(), int64_t{0});
    }
  }
  std::vector<Matrix> hs = embed(src, alpha_s, twins_s, &rows);
  std::vector<Matrix> ht = embed(tgt, alpha_t, twins_t, &cols);
  const Matrix layer0 = LayerZeroScores(hs, ht, theta);
  StabilityScanner plain(theta, lambda);
  StabilityScanner cached(theta, lambda, &layer0);

  int with_stable = 0;
  for (int step = 0; step < 14; ++step) {
    if (step > 0) {
      // Scale the factors of a few random nodes on each side; every fourth
      // step also scales the largest hub.
      auto update = [&](const AttributedGraph& g, std::vector<double>* alpha,
                        int count) {
        std::vector<int64_t> changed;
        const int64_t n = g.num_nodes();
        for (int i = 0; i < count; ++i) changed.push_back(rng.UniformInt(n));
        if (step % 4 == 0) {
          int64_t hub = 0;
          for (int64_t v = 1; v < n; ++v) {
            if (g.Degree(v) > g.Degree(hub)) hub = v;
          }
          changed.push_back(hub);
        }
        const double factor = step % 3 == 0 ? 0.5 : step % 3 == 1 ? 1.1 : 2.0;
        for (const int64_t v : changed) (*alpha)[v] *= factor;
        return Reach(g, changed, 2);
      };
      rows = update(src, &alpha_s, step % 5 == 0 ? 0 : 1 + step % 3);
      cols = update(tgt, &alpha_t, step % 7 == 0 ? 0 : 1 + step % 2);
      ASSERT_LT(rows[2].size(), 700u);
      ASSERT_LT(cols[2].size(), 150u);
      hs = embed(src, alpha_s, twins_s, &rows);
      ht = embed(tgt, alpha_t, twins_t, &cols);
    }
    plain.Rescan(hs, ht, rows, cols);
    cached.Rescan(hs, ht, rows, cols);
    const DenseScan dense(hs, ht, theta, lambda);
    const std::string at = "step " + std::to_string(step);
    ExpectSameScan(plain, dense, at + ", no layer-0 scores");
    ExpectSameScan(cached, dense, at + ", layer-0 scores");
    const StabilityScan full = ScanStability(hs, ht, theta, lambda);
    EXPECT_EQ(full.stable_source, dense.result.stable_source) << at;
    EXPECT_EQ(full.stable_target, dense.result.stable_target) << at;
    EXPECT_TRUE(SameDouble(full.aggregate_score, dense.result.aggregate_score))
        << at;
    with_stable += !dense.result.stable_source.empty() &&
                   !dense.result.stable_target.empty();
  }
  EXPECT_GE(with_stable, 3);
}

// Alg. 2 with a full re-embed and a full dense scan every iteration: the
// reference RefineAlignment's incremental loop must reproduce bit for bit.
struct ReferenceRun {
  RefinementResult result;
  int iterations_with_stable = 0;
};

ReferenceRun ReferenceRefine(const MultiOrderGcn& gcn,
                             const AttributedGraph& source,
                             const AttributedGraph& target,
                             const GAlignConfig& cfg) {
  const std::vector<double> theta = cfg.EffectiveLayerWeights();
  std::vector<double> alpha_s(source.num_nodes(), 1.0);
  std::vector<double> alpha_t(target.num_nodes(), 1.0);
  auto embed = [&](const AttributedGraph& g, const std::vector<double>& a) {
    return gcn.ForwardInference(Propagation(g, a), g.attributes());
  };
  std::vector<Matrix> hs = embed(source, alpha_s);
  std::vector<Matrix> ht = embed(target, alpha_t);
  DenseScan scan(hs, ht, theta, cfg.stability_threshold);
  ReferenceRun run;
  RefinementResult& r = run.result;
  r.best_score = scan.result.aggregate_score;
  r.score_history.push_back(r.best_score);
  std::vector<Matrix> best_hs = hs, best_ht = ht;
  for (int iter = 1; iter <= cfg.refinement_iterations; ++iter) {
    run.iterations_with_stable += !scan.result.stable_source.empty() ||
                                  !scan.result.stable_target.empty();
    for (const int64_t v : scan.result.stable_source) {
      alpha_s[v] *= cfg.accumulation_factor;
    }
    for (const int64_t u : scan.result.stable_target) {
      alpha_t[u] *= cfg.accumulation_factor;
    }
    hs = embed(source, alpha_s);
    ht = embed(target, alpha_t);
    scan = DenseScan(hs, ht, theta, cfg.stability_threshold);
    r.score_history.push_back(scan.result.aggregate_score);
    if (scan.result.aggregate_score > r.best_score) {
      r.best_score = scan.result.aggregate_score;
      r.best_iteration = iter;
      best_hs = hs;
      best_ht = ht;
    }
  }
  r.alignment = AggregateAlignment(best_hs, best_ht, theta);
  r.source_embeddings = std::move(best_hs);
  r.target_embeddings = std::move(best_ht);
  return run;
}

TEST(IncrementalRefinementTest, MatchesFullReembedAndFullScanEveryIteration) {
  // 600 nodes with hubs: the stable nodes' 2-hop sets are neither empty nor
  // the whole graph, and the full scans span two 512-row blocks.
  Rng rng(41);
  auto g = BarabasiAlbert(600, 2, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(600, 8, 0.3, &rng)).MoveValueOrDie();
  NoisyCopyOptions opts;
  opts.structural_noise = 0.05;
  const AlignmentPair pair = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
  GAlignConfig cfg;
  cfg.epochs = 20;
  cfg.embedding_dim = 16;
  cfg.refinement_iterations = 8;
  cfg.stability_threshold = 0.9;
  MultiOrderGcn gcn(cfg.num_layers, g.num_attributes(), cfg.embedding_dim,
                    &rng);
  Trainer(cfg).Train(&gcn, pair.source, pair.target, &rng).CheckOK();

  const ReferenceRun ref = ReferenceRefine(gcn, pair.source, pair.target, cfg);
  EXPECT_GE(ref.iterations_with_stable, 3);
  const RefinementResult& want = ref.result;
  // A candidate-pair policy whose index a 1-byte budget never admits: each
  // iteration's candidate scan fails and the exact scan takes over.
  AnnPolicy ann;
  ann.mode = AnnMode::kOn;
  const RunContext tight = RunContext::WithMemoryBudget(1);
  ASSERT_FALSE(ScanStabilityCandidates(want.source_embeddings,
                                       want.target_embeddings,
                                       cfg.EffectiveLayerWeights(),
                                       cfg.stability_threshold, ann, tight)
                   .ok());
  for (const bool fallback : {false, true}) {
    for (const bool materialize : {true, false}) {
      SCOPED_TRACE(std::string(materialize ? "materialize" : "embeddings") +
                   (fallback ? ", candidate scans failing" : ""));
      auto got = fallback ? RefineAlignment(gcn, pair.source, pair.target, cfg,
                                            tight, materialize, &ann)
                          : RefineAlignment(gcn, pair.source, pair.target, cfg,
                                            RunContext(), materialize);
      ASSERT_TRUE(got.ok());
      const RefinementResult& r = got.ValueOrDie();
      ASSERT_EQ(r.score_history.size(), want.score_history.size());
      EXPECT_EQ(std::memcmp(r.score_history.data(), want.score_history.data(),
                            r.score_history.size() * sizeof(double)),
                0);
      EXPECT_EQ(r.best_iteration, want.best_iteration);
      EXPECT_TRUE(SameDouble(r.best_score, want.best_score));
      EXPECT_EQ(r.report.iterations, cfg.refinement_iterations);
      ASSERT_EQ(r.source_embeddings.size(), want.source_embeddings.size());
      for (size_t l = 0; l < r.source_embeddings.size(); ++l) {
        EXPECT_TRUE(
            SameBits(r.source_embeddings[l], want.source_embeddings[l]));
        EXPECT_TRUE(
            SameBits(r.target_embeddings[l], want.target_embeddings[l]));
      }
      if (materialize) {
        EXPECT_TRUE(SameBits(r.alignment, want.alignment));
      } else {
        EXPECT_TRUE(r.alignment.empty());
      }
    }
  }
}

TEST_F(RefinementEndToEnd, RejectsMismatchedLayerWeights) {
  GAlignConfig bad = cfg_;
  bad.num_layers = 5;  // theta of size 6 vs 2-layer GCN
  auto result = RefineAlignment(*gcn_, pair_.source, pair_.target, bad);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace galign
