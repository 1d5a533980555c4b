// Degenerate-graph conformance matrix (DESIGN.md §9): every aligner in the
// registry, against every degenerate pair shape, must return either a clean
// non-OK Status or a valid finite alignment — never crash, never NaN. Both
// the dense Align() and the budget-degraded AlignTopK() entry points are
// held to the contract, and so is AlignmentIndex::Build: a clean non-OK
// Status or an artifact that loads.
//
// Also pins the degree-zero normalization contract: isolated nodes must not
// put 1/sqrt(0) infinities into any propagation matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "align/metrics.h"
#include "baselines/cenalp.h"
#include "baselines/deeplink.h"
#include "baselines/final.h"
#include "baselines/ione.h"
#include "baselines/isorank.h"
#include "baselines/naive.h"
#include "baselines/netalign.h"
#include "baselines/pale.h"
#include "baselines/regal.h"
#include "baselines/unialign.h"
#include "core/galign.h"
#include "graph/ann/ann_index.h"
#include "graph/generators.h"
#include "serve/alignment_index.h"

namespace galign {
namespace {

std::vector<std::unique_ptr<Aligner>> AllAligners() {
  std::vector<std::unique_ptr<Aligner>> out;
  GAlignConfig cfg;
  cfg.epochs = 4;
  cfg.embedding_dim = 8;
  cfg.refinement_iterations = 1;
  out.push_back(std::make_unique<GAlignAligner>(cfg));
  out.push_back(std::make_unique<FinalAligner>());
  out.push_back(std::make_unique<IsoRankAligner>());
  out.push_back(std::make_unique<RegalAligner>());
  out.push_back(std::make_unique<UniAlignAligner>());
  out.push_back(std::make_unique<DegreeRankAligner>());
  out.push_back(std::make_unique<AttributeOnlyAligner>());
  out.push_back(std::make_unique<RandomAligner>());

  PaleConfig pale;
  pale.embedding_dim = 8;
  pale.embedding_epochs = 3;
  pale.mapping_epochs = 10;
  out.push_back(std::make_unique<PaleAligner>(pale));

  DeepLinkConfig deeplink;
  deeplink.walks.walks_per_node = 2;
  deeplink.walks.walk_length = 4;
  deeplink.skipgram.dim = 8;
  deeplink.skipgram.epochs = 1;
  deeplink.mapping_epochs = 10;
  out.push_back(std::make_unique<DeepLinkAligner>(deeplink));

  IoneConfig ione;
  ione.dim = 8;
  ione.epochs = 5;
  out.push_back(std::make_unique<IoneAligner>(ione));

  CenalpConfig cenalp;
  cenalp.walks.walks_per_node = 2;
  cenalp.walks.walk_length = 4;
  cenalp.skipgram.dim = 8;
  cenalp.skipgram.epochs = 1;
  cenalp.expansion_rounds = 1;
  out.push_back(std::make_unique<CenalpAligner>(cenalp));

  NetAlignConfig netalign;
  netalign.candidates_per_node = 3;
  netalign.iterations = 3;
  out.push_back(std::make_unique<NetAlignAligner>(netalign));
  return out;
}

AttributedGraph EmptyGraph() {
  return AttributedGraph::Create(0, {}, Matrix(0, 4)).MoveValueOrDie();
}

AttributedGraph SingleNode() {
  return AttributedGraph::Create(1, {}, Matrix(1, 4, 1.0)).MoveValueOrDie();
}

AttributedGraph NoEdges(int64_t n, uint64_t seed) {
  Rng rng(seed);
  return AttributedGraph::Create(n, {}, BinaryAttributes(n, 4, 0.3, &rng))
      .MoveValueOrDie();
}

// Nodes with an all-zero attribute row next to regular nodes: the cosine
// kernels must define them as zero similarity, not 0/0.
AttributedGraph ZeroAttributeRows(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (int64_t v = 1; v < n; ++v) edges.push_back({v - 1, v});
  Matrix attrs = BinaryAttributes(n, 4, 0.4, &rng);
  for (int64_t c = 0; c < attrs.cols(); ++c) attrs(0, c) = 0.0;
  return AttributedGraph::Create(n, std::move(edges), std::move(attrs))
      .MoveValueOrDie();
}

AttributedGraph CompleteGraph(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (int64_t u = 0; u < n; ++u) {
    for (int64_t v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return AttributedGraph::Create(n, std::move(edges),
                                 BinaryAttributes(n, 4, 0.3, &rng))
      .MoveValueOrDie();
}

// Hub + leaves + a few isolated nodes: maximal degree skew plus degree 0.
AttributedGraph StarWithIsolated(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (int64_t v = 1; v < n - 2; ++v) edges.push_back({0, v});
  return AttributedGraph::Create(n, std::move(edges),
                                 BinaryAttributes(n, 4, 0.3, &rng))
      .MoveValueOrDie();
}

Supervision FewSeeds(const AttributedGraph& s, const AttributedGraph& t) {
  Supervision sup;
  const int64_t n = std::min({s.num_nodes(), t.num_nodes(), int64_t{3}});
  for (int64_t v = 0; v < n; ++v) sup.seeds.emplace_back(v, v);
  return sup;
}

void ExpectConformance(Aligner* a, const AttributedGraph& s,
                       const AttributedGraph& t, const std::string& shape) {
  for (const Supervision& sup : {Supervision{}, FewSeeds(s, t)}) {
    const std::string label =
        a->name() + " on " + shape + " (seeds=" +
        std::to_string(sup.seeds.size()) + ")";
    auto dense = a->Align(s, t, sup);
    if (dense.ok()) {
      EXPECT_EQ(dense.ValueOrDie().rows(), s.num_nodes()) << label;
      EXPECT_EQ(dense.ValueOrDie().cols(), t.num_nodes()) << label;
      EXPECT_TRUE(dense.ValueOrDie().AllFinite()) << label;
    }
    auto topk = a->AlignTopK(s, t, sup, RunContext(), 3);
    if (topk.ok()) {
      const TopKAlignment& c = topk.ValueOrDie();
      EXPECT_EQ(c.rows, s.num_nodes()) << label;
      EXPECT_EQ(c.cols, t.num_nodes()) << label;
      for (size_t i = 0; i < c.score.size(); ++i) {
        if (c.index[i] >= 0) {
          EXPECT_TRUE(std::isfinite(c.score[i])) << label << " slot " << i;
        }
      }
    }
    // Non-OK is conforming: the contract is a clean Status, not success.
  }
}

struct ShapeCase {
  std::string name;
  AttributedGraph source;
  AttributedGraph target;
};

std::vector<ShapeCase> DegenerateShapes() {
  std::vector<ShapeCase> shapes;
  shapes.push_back({"empty", EmptyGraph(), EmptyGraph()});
  shapes.push_back({"empty-vs-regular", EmptyGraph(), NoEdges(6, 11)});
  shapes.push_back({"single-node", SingleNode(), SingleNode()});
  shapes.push_back({"no-edges", NoEdges(10, 1), NoEdges(8, 2)});
  shapes.push_back(
      {"zero-attribute-rows", ZeroAttributeRows(10, 3), ZeroAttributeRows(10, 4)});
  shapes.push_back({"complete-K20", CompleteGraph(20, 5), CompleteGraph(20, 6)});
  shapes.push_back(
      {"star-with-isolated", StarWithIsolated(12, 7), StarWithIsolated(12, 8)});
  return shapes;
}

TEST(DegenerateConformanceTest, AllAlignersAllShapes) {
  auto shapes = DegenerateShapes();
  for (auto& a : AllAligners()) {
    for (const auto& shape : shapes) {
      ExpectConformance(a.get(), shape.source, shape.target, shape.name);
    }
  }
}

TEST(DegenerateConformanceTest, AlignmentIndexBuildAllShapes) {
  GAlignConfig cfg;
  cfg.epochs = 4;
  cfg.embedding_dim = 8;
  AlignmentIndexOptions options;
  options.anchor_k = 3;
  for (const auto& shape : DegenerateShapes()) {
    auto built = AlignmentIndex::Build(cfg, shape.source, shape.target,
                                       options);
    if (!built.ok()) continue;  // a clean Status is conforming
    auto loaded =
        AlignmentIndex::Parse(built.ValueOrDie()->Serialize(), shape.name);
    EXPECT_TRUE(loaded.ok()) << shape.name << ": "
                             << loaded.status().ToString();
  }
}

TEST(DegenerateConformanceTest, BudgetedRunsOnDegenerateShapesStayClean) {
  // A tiny budget on degenerate shapes must produce a clean Status or a
  // valid result — never a crash inside admission or the chunked kernel.
  auto shapes = DegenerateShapes();
  for (auto& a : AllAligners()) {
    for (const auto& shape : shapes) {
      RunContext ctx = RunContext::WithMemoryBudget(32 << 10);
      auto topk = a->AlignTopK(shape.source, shape.target, Supervision{}, ctx,
                               3);
      if (topk.ok()) {
        EXPECT_EQ(topk.ValueOrDie().rows, shape.source.num_nodes())
            << a->name() << " on " << shape.name;
      }
    }
  }
}

// --- ANN-routed conformance (DESIGN.md §11) -------------------------------
//
// Every aligner that gained an ANN route (GAlign, REGAL, DegreeRank,
// AttributeOnly) is forced through it (mode kOn bypasses the size
// threshold) over the degenerate shapes, plus the ANN-specific hazards:
// k >= n (padding, not out-of-range ids), all-identical embeddings (every
// point in one LSH bucket), and a low memory budget.

std::vector<std::unique_ptr<Aligner>> AnnRoutedAligners() {
  std::vector<std::unique_ptr<Aligner>> out;
  GAlignConfig cfg;
  cfg.epochs = 4;
  cfg.embedding_dim = 8;
  cfg.refinement_iterations = 1;
  out.push_back(std::make_unique<GAlignAligner>(cfg));
  out.push_back(std::make_unique<RegalAligner>());
  out.push_back(std::make_unique<DegreeRankAligner>());
  out.push_back(std::make_unique<AttributeOnlyAligner>());
  return out;
}

// All nodes share one attribute row: embeddings collapse to a single point.
AttributedGraph IdenticalAttributes(int64_t n) {
  std::vector<Edge> edges;
  for (int64_t v = 1; v < n; ++v) edges.push_back({v - 1, v});
  return AttributedGraph::Create(n, std::move(edges), Matrix(n, 4, 1.0))
      .MoveValueOrDie();
}

void ExpectAnnConformance(Aligner* a, const AttributedGraph& s,
                          const AttributedGraph& t, const std::string& shape,
                          const RunContext& ctx) {
  for (int64_t k : {int64_t{3}, t.num_nodes() + 5}) {
    const std::string label = a->name() + " (ann) on " + shape +
                              " k=" + std::to_string(k);
    auto topk = a->AlignTopK(s, t, Supervision{}, ctx, k);
    if (!topk.ok()) continue;  // a clean Status is conforming
    const TopKAlignment& c = topk.ValueOrDie();
    EXPECT_EQ(c.rows, s.num_nodes()) << label;
    EXPECT_EQ(c.cols, t.num_nodes()) << label;
    EXPECT_LE(c.k, std::max<int64_t>(k, 0)) << label;
    for (int64_t i = 0; i < c.rows_computed * c.k; ++i) {
      EXPECT_GE(c.index[i], -1) << label << " slot " << i;
      EXPECT_LT(c.index[i], t.num_nodes()) << label << " slot " << i;
      if (c.index[i] >= 0) {
        EXPECT_TRUE(std::isfinite(c.score[i])) << label << " slot " << i;
      }
    }
  }
}

TEST(DegenerateConformanceTest, AnnRoutedAlignersAllShapes) {
  auto shapes = DegenerateShapes();
  shapes.push_back(
      {"identical-attributes", IdenticalAttributes(10), IdenticalAttributes(8)});
  for (auto& a : AnnRoutedAligners()) {
    AnnPolicy policy;
    policy.mode = AnnMode::kOn;
    a->set_ann_policy(policy);
    for (const auto& shape : shapes) {
      ExpectAnnConformance(a.get(), shape.source, shape.target, shape.name,
                           RunContext());
    }
  }
}

TEST(DegenerateConformanceTest, AnnRoutedBudgetedRunsStayClean) {
  auto shapes = DegenerateShapes();
  shapes.push_back(
      {"identical-attributes", IdenticalAttributes(10), IdenticalAttributes(8)});
  for (auto& a : AnnRoutedAligners()) {
    AnnPolicy policy;
    policy.mode = AnnMode::kOn;
    a->set_ann_policy(policy);
    for (const auto& shape : shapes) {
      RunContext ctx = RunContext::WithMemoryBudget(32 << 10);
      ExpectAnnConformance(a.get(), shape.source, shape.target, shape.name,
                           ctx);
    }
  }
}

// --- Degree-zero normalization regression (satellite audit) ---------------

TEST(DegreeZeroTest, NormalizedAdjacencyFiniteWithIsolatedNodes) {
  auto g = StarWithIsolated(12, 9);
  auto norm = g.NormalizedAdjacency();
  ASSERT_TRUE(norm.ok()) << norm.status().ToString();
  const SparseMatrix& m = norm.ValueOrDie();
  for (double v : m.values()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  // The self-loop augmentation defines an isolated node's row as exactly
  // its self-loop: degree 0 becomes (0 + 1)^-1/2 * (0 + 1)^-1/2 = 1.
  const int64_t isolated = g.num_nodes() - 1;
  ASSERT_EQ(g.Degree(isolated), 0);
  EXPECT_DOUBLE_EQ(m.At(isolated, isolated), 1.0);
  // And no spurious coupling to the rest of the graph.
  EXPECT_DOUBLE_EQ(m.At(isolated, 0), 0.0);
}

TEST(DegreeZeroTest, InfluenceNormalizationFiniteWithIsolatedNodes) {
  auto g = StarWithIsolated(10, 10);
  std::vector<double> influence(g.num_nodes(), 1.0);
  influence[0] = 0.25;  // amplified hub, as refinement produces
  auto norm = g.NormalizedAdjacency(influence);
  ASSERT_TRUE(norm.ok()) << norm.status().ToString();
  for (double v : norm.ValueOrDie().values()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(DegreeZeroTest, FinalAndIsoRankFiniteWithIsolatedNodes) {
  auto s = StarWithIsolated(10, 11);
  auto t = StarWithIsolated(10, 12);
  Supervision sup = FewSeeds(s, t);
  FinalAligner fin;
  auto fr = fin.Align(s, t, sup);
  ASSERT_TRUE(fr.ok()) << fr.status().ToString();
  EXPECT_TRUE(fr.ValueOrDie().AllFinite());
  IsoRankAligner iso;
  auto ir = iso.Align(s, t, sup);
  ASSERT_TRUE(ir.ok()) << ir.status().ToString();
  EXPECT_TRUE(ir.ValueOrDie().AllFinite());
}

TEST(DegreeZeroTest, GAlignFiniteWithIsolatedNodes) {
  GAlignConfig cfg;
  cfg.epochs = 3;
  cfg.embedding_dim = 8;
  cfg.refinement_iterations = 1;
  GAlignAligner a(cfg);
  auto s = StarWithIsolated(10, 13);
  auto t = StarWithIsolated(10, 14);
  auto r = a.Align(s, t, Supervision{});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().AllFinite());
}

}  // namespace
}  // namespace galign
