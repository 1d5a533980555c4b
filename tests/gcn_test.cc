#include "core/gcn.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/augmenter.h"
#include "core/losses.h"
#include "graph/generators.h"
#include "graph/noise.h"
#include "la/ops.h"

namespace galign {
namespace {

AttributedGraph RandomGraph(uint64_t seed, int64_t n = 60) {
  Rng rng(seed);
  auto g = BarabasiAlbert(n, 3, &rng).MoveValueOrDie();
  Matrix f = BinaryAttributes(n, 8, 0.3, &rng);
  return g.WithAttributes(f).MoveValueOrDie();
}

TEST(GcnTest, WeightShapes) {
  Rng rng(1);
  MultiOrderGcn gcn(3, 8, 16, &rng);
  EXPECT_EQ(gcn.num_layers(), 3);
  EXPECT_EQ(gcn.weights()[0].rows(), 8);
  EXPECT_EQ(gcn.weights()[0].cols(), 16);
  EXPECT_EQ(gcn.weights()[1].rows(), 16);
  EXPECT_EQ(gcn.weights()[2].cols(), 16);
}

TEST(GcnTest, PerLayerDimensions) {
  // Paper Table I allows a distinct d^(l) per layer; build a pyramid.
  Rng rng(21);
  MultiOrderGcn gcn({32, 16, 8}, /*input_dim=*/6, &rng);
  EXPECT_EQ(gcn.num_layers(), 3);
  EXPECT_EQ(gcn.embedding_dim(), 8);
  EXPECT_EQ(gcn.weights()[0].rows(), 6);
  EXPECT_EQ(gcn.weights()[0].cols(), 32);
  EXPECT_EQ(gcn.weights()[1].rows(), 32);
  EXPECT_EQ(gcn.weights()[1].cols(), 16);
  EXPECT_EQ(gcn.weights()[2].cols(), 8);

  AttributedGraph g = RandomGraph(22);
  auto g6 = g.WithAttributes(Matrix::Uniform(g.num_nodes(), 6, &rng))
                .MoveValueOrDie();
  auto lap = g6.NormalizedAdjacency().MoveValueOrDie();
  auto layers = gcn.ForwardInference(lap, g6.attributes());
  ASSERT_EQ(layers.size(), 4u);
  EXPECT_EQ(layers[1].cols(), 32);
  EXPECT_EQ(layers[2].cols(), 16);
  EXPECT_EQ(layers[3].cols(), 8);
  for (const Matrix& h : layers) EXPECT_TRUE(h.AllFinite());
}

TEST(GcnTest, PerLayerDimsKeepPermutationImmunity) {
  Rng rng(23);
  AttributedGraph g = RandomGraph(24, 30);
  std::vector<int64_t> perm = rng.Permutation(g.num_nodes());
  AttributedGraph pg = g.Permuted(perm).MoveValueOrDie();
  MultiOrderGcn gcn({12, 6}, g.num_attributes(), &rng);
  auto hs = gcn.ForwardInference(g.NormalizedAdjacency().MoveValueOrDie(),
                                 g.attributes());
  auto ht = gcn.ForwardInference(pg.NormalizedAdjacency().MoveValueOrDie(),
                                 pg.attributes());
  for (size_t l = 0; l < hs.size(); ++l) {
    for (int64_t v = 0; v < g.num_nodes(); ++v) {
      for (int64_t c = 0; c < hs[l].cols(); ++c) {
        ASSERT_NEAR(ht[l](perm[v], c), hs[l](v, c), 1e-10);
      }
    }
  }
}

TEST(GcnTest, UniformConstructorMatchesVectorConstructor) {
  Rng r1(25), r2(25);
  MultiOrderGcn a(2, 5, 9, &r1);
  MultiOrderGcn b({9, 9}, 5, &r2);
  for (int l = 0; l < 2; ++l) {
    EXPECT_LT(Matrix::MaxAbsDiff(a.weights()[l], b.weights()[l]), 1e-15);
  }
}

TEST(GcnTest, ForwardInferenceShapesAndNorms) {
  AttributedGraph g = RandomGraph(2);
  Rng rng(3);
  MultiOrderGcn gcn(2, 8, 12, &rng);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto layers = gcn.ForwardInference(lap, g.attributes());
  ASSERT_EQ(layers.size(), 3u);  // H0..H2
  EXPECT_EQ(layers[0].cols(), 8);
  EXPECT_EQ(layers[1].cols(), 12);
  EXPECT_EQ(layers[2].cols(), 12);
  // Every layer is row-normalized.
  for (const Matrix& h : layers) {
    for (int64_t r = 0; r < h.rows(); ++r) {
      double n = h.RowNorm(r);
      EXPECT_TRUE(n < 1e-9 || std::fabs(n - 1.0) < 1e-9);
    }
  }
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(GcnTest, UpdateInferenceRowsMatchesForwardInferenceBitForBit) {
  // Scaling one node's influence factor changes row and column v of C
  // (Eq. 15). Recomputing only layer 1's closed neighbourhood of the
  // changed nodes and layer 2's closed 2-hop neighbourhood must give every
  // bit of a full ForwardInference, and every other row must keep its bits.
  AttributedGraph g = RandomGraph(21, 300);
  Rng rng(22);
  for (const Activation act : {Activation::kTanh, Activation::kRelu}) {
    MultiOrderGcn gcn(std::vector<int64_t>{12, 7}, 8, &rng, act);
    std::vector<double> q(300, 1.0);
    std::vector<Matrix> layers = gcn.ForwardInference(
        g.NormalizedAdjacency(q).MoveValueOrDie(), g.attributes());
    for (int step = 0; step < 6; ++step) {
      std::set<int64_t> reach;
      for (int i = 0; i < 1 + step % 3; ++i) {
        const int64_t v = rng.UniformInt(300);
        q[v] *= step % 2 == 0 ? 0.25 : 3.0;
        reach.insert(v);
      }
      std::vector<std::vector<int64_t>> rows;
      for (int l = 0; l < 2; ++l) {
        std::set<int64_t> next = reach;
        for (const int64_t v : reach) {
          for (const int64_t u : g.Neighbors(v)) next.insert(u);
        }
        reach = next;
        rows.emplace_back(reach.begin(), reach.end());
      }
      ASSERT_LT(rows[1].size(), 300u);
      const SparseMatrix lap = g.NormalizedAdjacency(q).MoveValueOrDie();
      const std::vector<Matrix> before = layers;
      gcn.UpdateInferenceRows(lap, rows, &layers);
      const std::vector<Matrix> full =
          gcn.ForwardInference(lap, g.attributes());
      for (size_t l = 0; l < full.size(); ++l) {
        EXPECT_TRUE(SameBits(layers[l], full[l])) << "layer " << l;
      }
      for (size_t l = 1; l < full.size(); ++l) {
        const std::set<int64_t> listed(rows[l - 1].begin(),
                                       rows[l - 1].end());
        for (int64_t v = 0; v < 300; ++v) {
          if (listed.count(v)) continue;
          EXPECT_EQ(std::memcmp(before[l].row_data(v), full[l].row_data(v),
                                full[l].cols() * sizeof(double)),
                    0)
              << "layer " << l << " row " << v << " moved unlisted";
        }
      }
    }
  }
}

TEST(GcnTest, TapeForwardMatchesInference) {
  AttributedGraph g = RandomGraph(4);
  Rng rng(5);
  MultiOrderGcn gcn(2, 8, 10, &rng);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto inference = gcn.ForwardInference(lap, g.attributes());
  Tape tape;
  std::vector<Var> wv;
  auto layers = gcn.Forward(&tape, &lap, g.attributes(), &wv);
  ASSERT_EQ(layers.size(), inference.size());
  for (size_t l = 0; l < layers.size(); ++l) {
    EXPECT_LT(Matrix::MaxAbsDiff(tape.value(layers[l]), inference[l]), 1e-12);
  }
}

// ------------------------------------------------- Proposition 1 (paper IV-B)

class PermutationImmunity : public ::testing::TestWithParam<int> {};

TEST_P(PermutationImmunity, EmbeddingsPermuteWithTheGraph) {
  // If A_t = P A_s P^T (and attributes move with nodes), then
  // H_t^(l) = P H_s^(l) exactly, at every layer.
  const int trial = GetParam();
  AttributedGraph g = RandomGraph(100 + trial, 40 + 10 * trial);
  Rng rng(200 + trial);
  std::vector<int64_t> perm = rng.Permutation(g.num_nodes());
  AttributedGraph pg = g.Permuted(perm).MoveValueOrDie();

  MultiOrderGcn gcn(3, g.num_attributes(), 16, &rng);
  auto lap_s = g.NormalizedAdjacency().MoveValueOrDie();
  auto lap_t = pg.NormalizedAdjacency().MoveValueOrDie();
  auto hs = gcn.ForwardInference(lap_s, g.attributes());
  auto ht = gcn.ForwardInference(lap_t, pg.attributes());

  for (size_t l = 0; l < hs.size(); ++l) {
    for (int64_t v = 0; v < g.num_nodes(); ++v) {
      for (int64_t c = 0; c < hs[l].cols(); ++c) {
        ASSERT_NEAR(ht[l](perm[v], c), hs[l](v, c), 1e-10)
            << "layer " << l << " node " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, PermutationImmunity,
                         ::testing::Values(0, 1, 2, 3, 4));

// ------------------------------------------------- Proposition 2 (paper IV-C)

TEST(GcnTest, MatchedNeighborhoodsGiveEqualEmbeddings) {
  // Two disjoint triangles with identical attributes: corresponding nodes
  // have degree-matched, embedding-matched neighbourhoods, so their
  // embeddings must coincide at every layer.
  Matrix f(6, 4);
  for (int64_t v = 0; v < 3; ++v) {
    for (int64_t c = 0; c < 4; ++c) {
      double val = (v * 7 + c * 3) % 5 + 1.0;
      f(v, c) = val;
      f(v + 3, c) = val;  // twin node
    }
  }
  auto g = AttributedGraph::Create(
               6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}, f)
               .MoveValueOrDie();
  Rng rng(7);
  MultiOrderGcn gcn(3, 4, 8, &rng);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto layers = gcn.ForwardInference(lap, g.attributes());
  for (const Matrix& h : layers) {
    for (int64_t v = 0; v < 3; ++v) {
      for (int64_t c = 0; c < h.cols(); ++c) {
        ASSERT_NEAR(h(v, c), h(v + 3, c), 1e-12);
      }
    }
  }
}

TEST(GcnTest, TanhBoundsPreNormalizationOutputs) {
  AttributedGraph g = RandomGraph(8);
  Rng rng(9);
  MultiOrderGcn gcn(2, 8, 12, &rng, Activation::kTanh);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto layers = gcn.ForwardInference(lap, g.attributes());
  // After normalization entries stay within [-1, 1] regardless.
  for (const Matrix& h : layers) {
    EXPECT_LE(h.MaxAbs(), 1.0 + 1e-12);
  }
}

TEST(GcnTest, ReluActivationNonNegative) {
  AttributedGraph g = RandomGraph(10);
  Rng rng(11);
  MultiOrderGcn gcn(2, 8, 12, &rng, Activation::kRelu);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto layers = gcn.ForwardInference(lap, g.attributes());
  for (size_t l = 1; l < layers.size(); ++l) {
    for (int64_t i = 0; i < layers[l].size(); ++i) {
      EXPECT_GE(layers[l].data()[i], 0.0);
    }
  }
}

TEST(GcnTest, ReluIsNotSignPreserving) {
  // The paper's argument for tanh: two graphs whose pre-activations differ
  // only in sign collapse to the same ReLU embedding. Verify tanh separates
  // a pattern that relu cannot: tanh(-x) != tanh(x) while relu(-x) ==
  // relu(0) for x > 0 collapses negatives.
  Matrix pre{{-0.5, 0.5}};
  Matrix relu = Map(pre, [](double v) { return v > 0 ? v : 0.0; });
  Matrix t = Tanh(pre);
  EXPECT_DOUBLE_EQ(relu(0, 0), 0.0);   // sign information destroyed
  EXPECT_LT(t(0, 0), 0.0);             // sign information kept
}

TEST(GcnTest, WeightSharingAcrossGraphsOnOneTape) {
  AttributedGraph g1 = RandomGraph(12);
  AttributedGraph g2 = RandomGraph(13);
  Rng rng(14);
  MultiOrderGcn gcn(2, 8, 10, &rng);
  auto lap1 = g1.NormalizedAdjacency().MoveValueOrDie();
  auto lap2 = g2.NormalizedAdjacency().MoveValueOrDie();
  Tape tape;
  auto wv = gcn.MakeWeightLeaves(&tape);
  auto h1 = gcn.ForwardWithWeights(&tape, &lap1, g1.attributes(), wv);
  auto h2 = gcn.ForwardWithWeights(&tape, &lap2, g2.attributes(), wv);
  // Gradients from both graphs accumulate into the same weight leaves.
  Var loss1 = ag::FrobeniusNorm(&tape, h1.back());
  Var loss2 = ag::FrobeniusNorm(&tape, h2.back());
  Var total = ag::WeightedSum(&tape, {{loss1, 1.0}, {loss2, 1.0}});
  tape.Backward(total);
  EXPECT_GT(tape.grad(wv[0]).MaxAbs(), 0.0);
}

// Real-valued tags: `per_row` random columns of each of n rows hold an
// N(0, 1) value, the rest are zero.
Matrix SparseTags(int64_t n, int64_t cols, int per_row, Rng* rng) {
  Matrix f(n, cols);
  for (int64_t r = 0; r < n; ++r) {
    for (int t = 0; t < per_row; ++t) f(r, rng->UniformInt(cols)) = rng->Normal();
  }
  return f;
}

TEST(GcnTest, ForwardFromInputMatchesForwardWithWeightsBitForBit) {
  // The trainer feeds layer 1 a precomputed constant C normalize(F). One
  // epoch through it (a graph plus two augmented copies, the full Eq. 10
  // loss) must reproduce every layer value, the loss and every weight
  // gradient of the ForwardWithWeights path bit for bit, whether the input
  // stays dense or, for sparse tags, takes the CSR path.
  // Real-valued attributes: with 0/1 rows, scaling by 1/||x|| and dividing
  // by ||x|| round alike, and the check could not see a changed
  // normalization. The sparse tags span 300 columns, so layer 1's product
  // crosses a 256-wide k-panel.
  Rng rng(22);
  const Matrix dense_features = Matrix::Gaussian(80, 8, &rng);
  const Matrix tag_features = SparseTags(80, 300, 2, &rng);
  for (const Matrix* features : {&dense_features, &tag_features}) {
    const bool sparse = features == &tag_features;
    SCOPED_TRACE(sparse ? "sparse tags" : "dense attributes");
    AttributedGraph g =
        RandomGraph(21, 80).WithAttributes(*features).MoveValueOrDie();
    GAlignConfig cfg;
    cfg.num_augmentations = 2;
    auto augs = MakeAugmentations(g, cfg, &rng).MoveValueOrDie();
    MultiOrderGcn gcn(2, features->cols(), 12, &rng);
    const SparseMatrix lap = g.NormalizedAdjacency().MoveValueOrDie();
    std::vector<LayerInput> inputs;
    inputs.push_back(MultiOrderGcn::PropagatedInput(lap, g.attributes()));
    for (const AugmentedNetwork& a : augs) {
      inputs.push_back(
          MultiOrderGcn::PropagatedInput(a.laplacian, a.graph.attributes()));
    }
    for (const LayerInput& input : inputs) {
      EXPECT_EQ(input.is_sparse(), sparse);
    }

    auto epoch = [&](bool from_input) {
      Tape tape;
      const std::vector<Var> wv = gcn.MakeWeightLeaves(&tape);
      auto forward = [&](const SparseMatrix* l, const Matrix& f,
                         const LayerInput* input) {
        return from_input ? gcn.ForwardFromInput(&tape, l, input, wv)
                          : gcn.ForwardWithWeights(&tape, l, f, wv);
      };
      const std::vector<Var> hs = forward(&lap, g.attributes(), &inputs[0]);
      EXPECT_EQ(hs[0].valid(), !from_input);
      std::vector<std::vector<Var>> aug_layers;
      std::vector<const std::vector<int64_t>*> corr;
      for (size_t i = 0; i < augs.size(); ++i) {
        aug_layers.push_back(forward(&augs[i].laplacian,
                                     augs[i].graph.attributes(),
                                     &inputs[i + 1]));
        corr.push_back(&augs[i].correspondence);
      }
      Var loss = NetworkLoss(&tape, &lap, hs, aug_layers, corr, cfg);
      tape.Backward(loss);
      std::vector<Matrix> out{tape.value(loss)};
      for (size_t l = 1; l < hs.size(); ++l) out.push_back(tape.value(hs[l]));
      for (const auto& layers : aug_layers) {
        for (size_t l = 1; l < layers.size(); ++l) {
          out.push_back(tape.value(layers[l]));
        }
      }
      for (Var w : wv) out.push_back(tape.grad(w));
      return out;
    };

    const std::vector<Matrix> full = epoch(/*from_input=*/false);
    const std::vector<Matrix> hoisted = epoch(/*from_input=*/true);
    ASSERT_EQ(full.size(), hoisted.size());
    for (size_t i = 0; i < full.size(); ++i) {
      ASSERT_TRUE(full[i].SameShape(hoisted[i])) << "output " << i;
      EXPECT_EQ(std::memcmp(full[i].data(), hoisted[i].data(),
                            full[i].size() * sizeof(double)),
                0)
          << "output " << i;
    }
    EXPECT_GT(full.back().MaxAbs(), 0.0);
  }
}

}  // namespace
}  // namespace galign
