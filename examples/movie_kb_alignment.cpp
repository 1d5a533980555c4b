// Knowledge-base reconciliation: align two movie databases (Allmovie/Imdb
// style) whose nodes are films connected when they share actors, with genre
// attributes. Demonstrates the diagnostics the library exposes: training
// loss trajectory, refinement score trajectory, and per-entity match
// inspection, plus a t-SNE dump of the multi-order embedding space (the
// paper's Fig. 8 qualitative study).
#include <algorithm>
#include <cstdio>

#include "align/datasets.h"
#include "align/metrics.h"
#include "core/galign.h"
#include "la/ops.h"
#include "manifold/tsne.h"

using namespace galign;

int main() {
  DatasetSpec spec = AllmovieImdbSpec().Scaled(12.0);
  Rng rng(11);
  auto pair_result = SynthesizePair(spec, &rng);
  if (!pair_result.ok()) {
    std::fprintf(stderr, "%s\n", pair_result.status().ToString().c_str());
    return 1;
  }
  AlignmentPair pair = pair_result.MoveValueOrDie();
  std::printf("catalogue A: %lld films / %lld co-actor edges\n",
              (long long)pair.source.num_nodes(),
              (long long)pair.source.num_edges());
  std::printf("catalogue B: %lld films / %lld co-actor edges\n\n",
              (long long)pair.target.num_nodes(),
              (long long)pair.target.num_edges());

  GAlignConfig cfg;
  cfg.epochs = 40;
  cfg.embedding_dim = 64;
  cfg.refinement_iterations = 10;
  GAlignAligner aligner(cfg);
  auto alignment = aligner.Align(pair.source, pair.target, {});
  if (!alignment.ok()) {
    std::fprintf(stderr, "%s\n", alignment.status().ToString().c_str());
    return 1;
  }

  // Diagnostics: convergence of Alg. 1 and the greedy search of Alg. 2.
  const auto& loss = aligner.last_loss_history();
  std::printf("training loss: first=%.4f mid=%.4f last=%.4f\n", loss.front(),
              loss[loss.size() / 2], loss.back());
  const auto& scores = aligner.last_refinement_scores();
  std::printf("refinement g(S): init=%.2f best=%.2f (iterations=%zu)\n",
              scores.front(),
              *std::max_element(scores.begin(), scores.end()),
              scores.size() - 1);

  AlignmentMetrics m = ComputeMetrics(alignment.ValueOrDie(), pair.ground_truth);
  std::printf("quality: %s\n\n", m.ToString().c_str());

  // Inspect the five most confident matches.
  const Matrix& s = alignment.ValueOrDie();
  std::vector<std::pair<double, int64_t>> confident;
  for (int64_t v = 0; v < s.rows(); ++v) {
    confident.emplace_back(MaxRow(s, v), v);
  }
  std::sort(confident.rbegin(), confident.rend());
  std::printf("top-5 most confident film matches:\n");
  for (int i = 0; i < 5 && i < (int)confident.size(); ++i) {
    int64_t v = confident[i].second;
    int64_t u = ArgMaxRow(s, v);
    bool correct = pair.ground_truth[v] == u;
    std::printf("  film_%lld -> film_%lld (score %.3f) %s\n", (long long)v,
                (long long)u, confident[i].first,
                correct ? "[correct]" : "[wrong]");
  }

  // Qualitative study on a 10-film toy subset (paper Fig. 8): project the
  // concatenated multi-order embeddings of the matched pairs with t-SNE.
  GAlignConfig toy_cfg = cfg;
  toy_cfg.seed = 3;
  toy_cfg.use_refinement = false;
  TrainedEmbeddings toy_run;
  TrainAndEmbed(toy_cfg, pair.source, pair.target, {}, RunContext(),
                /*materialize=*/false, /*ann=*/nullptr, &toy_run)
      .CheckOK();
  const std::vector<Matrix>& hs = toy_run.source_layers;
  const std::vector<Matrix>& ht = toy_run.target_layers;
  Matrix multi_s = ConcatCols({&hs[0], &hs[1], &hs[2]});
  Matrix multi_t = ConcatCols({&ht[0], &ht[1], &ht[2]});

  std::vector<int64_t> toy;
  for (int64_t v = 0; v < pair.source.num_nodes() && toy.size() < 10; ++v) {
    if (pair.ground_truth[v] != -1) toy.push_back(v);
  }
  Matrix points(2 * (int64_t)toy.size(), multi_s.cols());
  for (size_t i = 0; i < toy.size(); ++i) {
    for (int64_t c = 0; c < multi_s.cols(); ++c) {
      points((int64_t)i, c) = multi_s(toy[i], c);
      points((int64_t)(toy.size() + i), c) =
          multi_t(pair.ground_truth[toy[i]], c);
    }
  }
  TsneConfig tsne_cfg;
  tsne_cfg.iterations = 400;
  tsne_cfg.learning_rate = 20.0;
  auto projected = Tsne(points, tsne_cfg);
  if (projected.ok()) {
    std::printf("\nt-SNE of 10 film pairs (source vs matched target):\n");
    const Matrix& y = projected.ValueOrDie();
    for (size_t i = 0; i < toy.size(); ++i) {
      std::printf("  pair %2zu: A=(%7.2f, %7.2f)  B=(%7.2f, %7.2f)\n", i,
                  y((int64_t)i, 0), y((int64_t)i, 1),
                  y((int64_t)(toy.size() + i), 0),
                  y((int64_t)(toy.size() + i), 1));
    }
  }
  return 0;
}
