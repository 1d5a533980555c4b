// Tests for TrainAndEmbed, the one train → embed path (multi-order
// embeddings for downstream tasks), and cross-checks against the
// refinement path.
#include <gtest/gtest.h>

#include "core/galign.h"
#include "core/refinement.h"
#include "core/trainer.h"
#include "graph/generators.h"
#include "graph/noise.h"
#include "la/ops.h"

namespace galign {
namespace {

AlignmentPair MakePair(uint64_t seed, int64_t n = 50) {
  Rng rng(seed);
  auto g = BarabasiAlbert(n, 3, &rng).MoveValueOrDie();
  Matrix f = BinaryAttributes(n, 8, 0.3, &rng);
  g = g.WithAttributes(f).MoveValueOrDie();
  NoisyCopyOptions opts;
  opts.structural_noise = 0.05;
  return MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
}

GAlignConfig FastConfig() {
  GAlignConfig cfg;
  cfg.epochs = 15;
  cfg.embedding_dim = 12;
  return cfg;
}

// Alg. 1 alone: the trained layers, as a downstream consumer takes them.
Status EmbedTrained(GAlignConfig cfg, const AttributedGraph& source,
                    const AttributedGraph& target, TrainedEmbeddings* out) {
  cfg.use_refinement = false;
  return TrainAndEmbed(cfg, source, target, Supervision{}, RunContext(),
                       /*materialize=*/false, /*ann=*/nullptr, out);
}

// All layers side by side: one feature row per node.
Matrix Concat(const std::vector<Matrix>& layers) {
  std::vector<const Matrix*> ptrs;
  for (const Matrix& h : layers) ptrs.push_back(&h);
  return ConcatCols(ptrs);
}

TEST(EmbedNetworksTest, ShapesAndLayerCount) {
  AlignmentPair pair = MakePair(1);
  GAlignConfig cfg = FastConfig();
  TrainedEmbeddings emb;
  Status s = EmbedTrained(cfg, pair.source, pair.target, &emb);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(emb.source_layers.size(), static_cast<size_t>(cfg.num_layers) + 1);
  ASSERT_EQ(emb.target_layers.size(), emb.source_layers.size());
  EXPECT_EQ(emb.source_layers[0].cols(), pair.source.num_attributes());
  EXPECT_EQ(emb.source_layers[1].cols(), cfg.embedding_dim);
  // Concatenation width = attr dim + k * embedding dim.
  const Matrix source_concat = Concat(emb.source_layers);
  EXPECT_EQ(source_concat.cols(),
            pair.source.num_attributes() + cfg.num_layers * cfg.embedding_dim);
  EXPECT_EQ(source_concat.rows(), pair.source.num_nodes());
  EXPECT_EQ(Concat(emb.target_layers).rows(), pair.target.num_nodes());
  EXPECT_TRUE(source_concat.AllFinite());
  // The rest of the run comes back too; S only on request.
  ASSERT_NE(emb.model, nullptr);
  EXPECT_EQ(emb.model->num_layers(), cfg.num_layers);
  EXPECT_EQ(emb.report.epochs_run, cfg.epochs);
  EXPECT_EQ(emb.loss_history.size(), static_cast<size_t>(cfg.epochs));
  EXPECT_TRUE(emb.refinement_scores.empty());
  EXPECT_EQ(emb.alignment.size(), 0);
}

TEST(EmbedNetworksTest, AnchorsAreMutuallyClosest) {
  AlignmentPair pair = MakePair(2);
  TrainedEmbeddings e;
  ASSERT_TRUE(EmbedTrained(FastConfig(), pair.source, pair.target, &e).ok());
  const Matrix source_concat = Concat(e.source_layers);
  const Matrix target_concat = Concat(e.target_layers);
  // For most anchors, the matched target row should be among the closest in
  // the concatenated embedding space.
  int64_t good = 0;
  for (int64_t v = 0; v < pair.source.num_nodes(); ++v) {
    int64_t t = pair.ground_truth[v];
    double anchor_sim = RowCosine(source_concat, v, target_concat, t);
    int64_t better = 0;
    for (int64_t u = 0; u < pair.target.num_nodes(); ++u) {
      if (u != t &&
          RowCosine(source_concat, v, target_concat, u) > anchor_sim) {
        ++better;
      }
    }
    if (better < 5) ++good;
  }
  EXPECT_GT(good, pair.source.num_nodes() * 6 / 10);
}

TEST(EmbedNetworksTest, RejectsMismatchedAttributes) {
  AlignmentPair pair = MakePair(3, 30);
  auto other =
      pair.source.WithAttributes(Matrix(30, 3, 1.0)).MoveValueOrDie();
  TrainedEmbeddings e;
  EXPECT_FALSE(EmbedTrained(FastConfig(), other, pair.target, &e).ok());
}

TEST(EmbedNetworksTest, RejectsInvalidConfigBeforeTraining) {
  AlignmentPair pair = MakePair(6, 30);
  GAlignConfig cfg = FastConfig();
  cfg.learning_rate = -1.0;
  TrainedEmbeddings e;
  Status s = EmbedTrained(cfg, pair.source, pair.target, &e);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_EQ(e.model, nullptr);
  EXPECT_EQ(e.report.epochs_run, 0);
}

TEST(EmbedNetworksTest, DeterministicUnderSeed) {
  AlignmentPair pair = MakePair(4, 30);
  GAlignConfig cfg = FastConfig();
  TrainedEmbeddings e1, e2;
  ASSERT_TRUE(EmbedTrained(cfg, pair.source, pair.target, &e1).ok());
  ASSERT_TRUE(EmbedTrained(cfg, pair.source, pair.target, &e2).ok());
  EXPECT_LT(Matrix::MaxAbsDiff(Concat(e1.source_layers),
                               Concat(e2.source_layers)),
            1e-15);
}

TEST(RefinementEmbeddingsTest, ExposedThroughResult) {
  AlignmentPair pair = MakePair(5, 40);
  GAlignConfig cfg = FastConfig();
  cfg.refinement_iterations = 3;
  Rng rng(cfg.seed);
  MultiOrderGcn gcn(cfg.num_layers, pair.source.num_attributes(),
                    cfg.embedding_dim, &rng);
  Trainer trainer(cfg);
  trainer.Train(&gcn, pair.source, pair.target, &rng).CheckOK();
  auto r = RefineAlignment(gcn, pair.source, pair.target, cfg);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.ValueOrDie().source_embeddings.size(),
            static_cast<size_t>(cfg.num_layers) + 1);
  // Aggregating the returned embeddings reproduces the returned alignment.
  Matrix s = AggregateAlignment(r.ValueOrDie().source_embeddings,
                                r.ValueOrDie().target_embeddings,
                                cfg.EffectiveLayerWeights());
  EXPECT_LT(Matrix::MaxAbsDiff(s, r.ValueOrDie().alignment), 1e-12);
}

}  // namespace
}  // namespace galign
