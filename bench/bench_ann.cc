// Google-benchmark suite for the ANN retrieval layer (DESIGN.md §11):
//
//   * LSH index construction cost (BM_LshBuild);
//   * a recall-vs-QPS sweep over the search-effort knob — probed buckets
//     per table — each entry carrying a `recall` counter measured against
//     the exact chunked top-k oracle (BM_LshRecallQps);
//   * the headline end-to-end number: ANN-routed AlignTopK against the
//     exact chunked scan on a fuzzer-scale 20k x 20k attributed pair,
//     recording `speedup_vs_exact` and achieved `recall` in one entry
//     (BM_AnnAlignTopKEndToEnd);
//   * one refinement iteration's candidate scan at perfbench topk_ann_6k's
//     shape — the k = 32 QueryBatch over a 6000 x 216 base and the whole
//     ScanStabilityCandidates (BM_QueryBatch6k, BM_ScanStabilityCandidates6k).
//
// The workload is the planted-neighborhood design of
// tests/ann_recall_test.cc at bench scale: unit rows clustered around
// shared centers, so "the true top-k" is meaningful and recall against the
// exact oracle measures something real. Everything is seeded; run via
// bench/run_all.sh to record BENCH_ann.json with provenance stamps.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/naive.h"
#include "bench/gbench_main.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/refinement.h"
#include "graph/ann/ann.h"
#include "graph/ann/ann_index.h"
#include "graph/generators.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"

namespace galign {
namespace {

constexpr int64_t kDim = 32;
// 256 centers over 20k points keeps planted neighborhoods ~80 rows — large
// enough that recall is a real measurement, small enough that per-query
// candidate sets stay proportional to k rather than to n / clusters.
constexpr int64_t kClusters = 256;
constexpr int64_t kTopK = 10;

// Unit rows clustered around `clusters` shared centers with per-row noise.
// Query and base sides share center_seed so queries have true near
// neighbors in the base; noise_seed differs per side.
Matrix ClusteredRows(int64_t n, int64_t d, int64_t clusters, double noise,
                     uint64_t center_seed, uint64_t noise_seed) {
  Rng crng(center_seed);
  Matrix centers = Matrix::Gaussian(clusters, d, &crng);
  centers.NormalizeRows();
  Rng nrng(noise_seed);
  Matrix out = Matrix::Gaussian(n, d, &nrng);
  for (int64_t r = 0; r < n; ++r) {
    const double* c = centers.row_data(r % clusters);
    double* o = out.row_data(r);
    for (int64_t j = 0; j < d; ++j) o[j] = c[j] + noise * o[j];
  }
  out.NormalizeRows();
  return out;
}

// |ann top-k ∩ exact top-k| / |exact top-k| over the rows both computed.
double MeasuredRecall(const TopKAlignment& exact, const TopKAlignment& ann) {
  int64_t denom = 0, hits = 0;
  const int64_t rows = std::min(exact.rows_computed, ann.rows_computed);
  for (int64_t v = 0; v < rows; ++v) {
    for (int64_t j = 0; j < exact.k; ++j) {
      const int64_t want = exact.index[v * exact.k + j];
      if (want < 0) continue;
      ++denom;
      for (int64_t i = 0; i < ann.k; ++i) {
        if (ann.index[v * ann.k + i] == want) {
          ++hits;
          break;
        }
      }
    }
  }
  return denom == 0 ? 1.0 : static_cast<double>(hits) / denom;
}

// ------------------------------------------------------- build cost

void BM_LshBuild(benchmark::State& state) {
  const int64_t n = state.range(0);
  const Matrix base = ClusteredRows(n, kDim, kClusters, 0.06, 7, 8);
  AnnConfig cfg;
  for (auto _ : state) {
    Matrix copy = base;  // BuildAnnIndex takes ownership
    auto index = BuildAnnIndex(std::move(copy), cfg, RunContext());
    benchmark::DoNotOptimize(index.ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LshBuild)->Arg(4000)->Arg(20000);

// ------------------------------------------- recall-vs-QPS sweep

// A fixed 20k-row base and 2k queries plus the exact oracle, built once and
// reused across all sweep entries (the oracle scan is the expensive part).
struct SweepFixture {
  Matrix base;
  Matrix queries;
  TopKAlignment exact;
};

const SweepFixture& Sweep() {
  static const SweepFixture f = [] {
    SweepFixture s;
    s.base = ClusteredRows(20000, kDim, kClusters, 0.06, 21, 22);
    s.queries = ClusteredRows(2000, kDim, kClusters, 0.06, 21, 23);
    s.exact = ChunkedEmbeddingTopK({s.queries}, {s.base}, {1.0}, kTopK,
                                   RunContext())
                  .MoveValueOrDie();
    return s;
  }();
  return f;
}

void BM_LshRecallQps(benchmark::State& state) {
  const SweepFixture& f = Sweep();
  AnnConfig cfg;
  cfg.lsh_probes = state.range(0);
  Matrix copy = f.base;
  auto index = BuildAnnIndex(std::move(copy), cfg, RunContext());
  const AnnIndex& idx = *index.ValueOrDie();
  auto first = idx.QueryBatch(f.queries, kTopK);
  state.counters["recall"] = MeasuredRecall(f.exact, first.ValueOrDie());
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.QueryBatch(f.queries, kTopK).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * f.queries.rows());
}
BENCHMARK(BM_LshRecallQps)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// ------------------------------------------------ end-to-end headline

// The acceptance number: on a 20k x 20k fuzzer-style attributed pair,
// index-routed AlignTopK (kAuto routes at this size) vs the exact chunked
// scan, same oracle-measured recall contract as the property test. The
// exact pass runs once; its wall time and the achieved recall are attached
// to this entry as counters, so BENCH_ann.json records the speedup and the
// recall it was bought at together.
void BM_AnnAlignTopKEndToEnd(benchmark::State& state) {
  const int64_t n = state.range(0);
  struct Fixture {
    AttributedGraph src;
    AttributedGraph tgt;
    TopKAlignment exact;
    double exact_seconds;
  };
  static std::unique_ptr<Fixture> fx;
  if (!fx || fx->src.num_nodes() != n) {
    Rng gs(41), gt(42);
    fx = std::make_unique<Fixture>(Fixture{
        PowerLawGraph(n, 3 * n, 2.5, &gs,
                      ClusteredRows(n, kDim, kClusters, 0.06, 400, 401))
            .MoveValueOrDie(),
        PowerLawGraph(n, 3 * n, 2.5, &gt,
                      ClusteredRows(n, kDim, kClusters, 0.06, 400, 402))
            .MoveValueOrDie(),
        TopKAlignment{}, 0.0});
    AttributeOnlyAligner exact_aligner;
    AnnPolicy off;
    off.mode = AnnMode::kOff;
    exact_aligner.set_ann_policy(off);
    Timer timer;
    fx->exact = exact_aligner
                    .AlignTopK(fx->src, fx->tgt, Supervision{}, RunContext(),
                               kTopK)
                    .MoveValueOrDie();
    fx->exact_seconds = timer.Seconds();
  }

  AttributeOnlyAligner routed;
  AnnPolicy policy;  // kAuto: n >= min_rows, so this routes via the index
  policy.recall_target = 0.98;
  routed.set_ann_policy(policy);

  Timer timer;
  int64_t iters = 0;
  TopKAlignment last;
  for (auto _ : state) {
    last = routed.AlignTopK(fx->src, fx->tgt, Supervision{}, RunContext(),
                            kTopK)
               .MoveValueOrDie();
    benchmark::DoNotOptimize(last.index.data());
    ++iters;
  }
  const double ann_seconds = timer.Seconds() / static_cast<double>(iters);
  state.counters["recall"] = MeasuredRecall(fx->exact, last);
  state.counters["exact_seconds"] = fx->exact_seconds;
  state.counters["speedup_vs_exact"] = fx->exact_seconds / ann_seconds;
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AnnAlignTopKEndToEnd)->Arg(20000)->Unit(benchmark::kMillisecond);

// ------------------------------------ topk_ann_6k candidate scan shape

// A refinement iteration's inputs at perfbench topk_ann_6k's shape: 6000
// source and target rows, layers 16 + 100 + 100 wide (attributes, then two
// GCN layers), equal layer weights. Each layer's rows cluster around
// centers both sides share, as the embeddings of a noisy copy do.
struct ScanFixture {
  std::vector<Matrix> hs, ht;
  std::vector<double> theta;
  Matrix base;     // the target layers concatenated
  Matrix queries;  // the source layers concatenated, scaled by theta
};

const ScanFixture& Scan6k() {
  static const ScanFixture f = [] {
    ScanFixture s;
    uint64_t seed = 600;
    for (const int64_t d : {16, 100, 100}) {
      s.hs.push_back(ClusteredRows(6000, d, 1500, 0.3, seed, seed + 1));
      s.ht.push_back(ClusteredRows(6000, d, 1500, 0.3, seed, seed + 2));
      seed += 3;
    }
    s.theta.assign(3, 1.0 / 3.0);
    s.base = ConcatLayerRows(s.ht, nullptr, nullptr).MoveValueOrDie();
    s.queries = ConcatLayerRows(s.hs, &s.theta, nullptr).MoveValueOrDie();
    return s;
  }();
  return f;
}

void BM_QueryBatch6k(benchmark::State& state) {
  const ScanFixture& f = Scan6k();
  auto index =
      BuildAnnIndex(f.base, EffortScaledConfig(AnnPolicy()), RunContext());
  const AnnIndex& idx = *index.ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.QueryBatch(f.queries, 32).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * f.queries.rows());
}
BENCHMARK(BM_QueryBatch6k)->Unit(benchmark::kMillisecond);

void BM_ScanStabilityCandidates6k(benchmark::State& state) {
  const ScanFixture& f = Scan6k();
  const AnnPolicy policy;  // refine_candidates = 32, as in refinement
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ScanStabilityCandidates(f.hs, f.ht, f.theta, 0.94, policy,
                                RunContext())
            .ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * f.hs[0].rows());
}
BENCHMARK(BM_ScanStabilityCandidates6k)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace galign

GALIGN_BENCHMARK_MAIN();
