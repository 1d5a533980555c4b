// Google-benchmark microbenchmarks for the kernels behind the paper's
// complexity analysis (§VI-C): SpMM (the O(ed) propagation), GEMM (the
// O(nd^2) projection), the fused consistency loss (O(ed + nd^2) instead of
// O(n^2 d)), the full GCN forward pass, the chunked stability scan, and a
// full training epoch. Run with --benchmark_filter=... to narrow.
#include <benchmark/benchmark.h>

#include <numeric>

#include "bench/gbench_main.h"

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "core/gcn.h"
#include "core/refinement.h"
#include "core/trainer.h"
#include "graph/generators.h"
#include "la/ops.h"

namespace galign {
namespace {

// A power-law graph with `tags` binary attributes, each set with
// probability `density`.
AttributedGraph BenchGraph(int64_t n, int64_t deg, int64_t tags = 16,
                           double density = 0.2) {
  Rng rng(42);
  auto g = PowerLawGraph(n, n * deg / 2, 2.5, &rng).MoveValueOrDie();
  return g.WithAttributes(BinaryAttributes(n, tags, density, &rng))
      .MoveValueOrDie();
}

void BM_SpMM(benchmark::State& state) {
  const int64_t n = state.range(0);
  AttributedGraph g = BenchGraph(n, 8);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  Rng rng(1);
  Matrix h = Matrix::Gaussian(n, 128, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lap.Multiply(h));
  }
  state.SetItemsProcessed(state.iterations() * lap.nnz() * 128);
}
BENCHMARK(BM_SpMM)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  Matrix a = Matrix::Gaussian(n, 128, &rng);
  Matrix w = Matrix::Gaussian(128, 128, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, w));
  }
  state.SetItemsProcessed(state.iterations() * n * 128 * 128);
}
BENCHMARK(BM_Gemm)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_GemmReference(benchmark::State& state) {
  // The retained naive kernel, for before/after ratios on this machine.
  const int64_t n = state.range(0);
  Rng rng(2);
  Matrix a = Matrix::Gaussian(n, 128, &rng);
  Matrix w = Matrix::Gaussian(128, 128, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::MatMul(a, w));
  }
  state.SetItemsProcessed(state.iterations() * n * 128 * 128);
}
BENCHMARK(BM_GemmReference)->Arg(1000)->Arg(4000);

void BM_GemmInto(benchmark::State& state) {
  // Allocation-free steady state: output + packed panels are reused.
  const int64_t n = state.range(0);
  Rng rng(2);
  Matrix a = Matrix::Gaussian(n, 128, &rng);
  Matrix w = Matrix::Gaussian(128, 128, &rng);
  Matrix out;
  for (auto _ : state) {
    MatMulInto(a, w, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 128 * 128);
}
BENCHMARK(BM_GemmInto)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_AlignmentKernel(benchmark::State& state) {
  // S^(l) = H_s H_t^T (Eq. 11) — the quadratic part of instantiation.
  const int64_t n = state.range(0);
  Rng rng(3);
  Matrix hs = Matrix::Gaussian(n, 128, &rng);
  Matrix ht = Matrix::Gaussian(n, 128, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposedB(hs, ht));
  }
  state.SetItemsProcessed(state.iterations() * n * n * 128);
}
BENCHMARK(BM_AlignmentKernel)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000);

void BM_AlignmentKernelReference(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  Matrix hs = Matrix::Gaussian(n, 128, &rng);
  Matrix ht = Matrix::Gaussian(n, 128, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference::MatMulTransposedB(hs, ht));
  }
  state.SetItemsProcessed(state.iterations() * n * n * 128);
}
BENCHMARK(BM_AlignmentKernelReference)->Arg(1000)->Arg(4000);

void BM_SpMMTransposed(benchmark::State& state) {
  // Repeated C^T H as in every training epoch's backward pass; the CSR
  // transpose is memoized after the first call.
  const int64_t n = state.range(0);
  AttributedGraph g = BenchGraph(n, 8);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  Rng rng(9);
  Matrix h = Matrix::Gaussian(n, 128, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lap.TransposedMultiply(h));
  }
  state.SetItemsProcessed(state.iterations() * lap.nnz() * 128);
}
BENCHMARK(BM_SpMMTransposed)->Arg(1000)->Arg(4000)->Arg(16000);

// Layer 1's product at the Douban pair's shape: the propagated tag input
// X = C·normalize(F) (3906 x 538) times W1 (538 x 200) in the forward pass,
// and Xᵀ·G (G 3906 x 200) for dW1 in the backward pass, with the input
// dense (BM_LayerOne*Dense) or in CSR (BM_LayerOne*Sparse). The argument is
// X's density in percent; Douban's inputs are 3.1-4.5% dense and
// topk_ann_6k's 67%. The crossover sets LayerInput::kMaxSparseDensity.
Matrix LayerOneInput(int64_t percent) {
  Rng rng(9);
  Matrix x(3906, 538);
  for (int64_t i = 0; i < x.size(); ++i) {
    if (rng.Uniform() * 100.0 < static_cast<double>(percent)) {
      x.data()[i] = rng.Uniform(0.01, 1.0);
    }
  }
  return x;
}

void BM_LayerOneForwardDense(benchmark::State& state) {
  const Matrix x = LayerOneInput(state.range(0));
  Rng rng(10);
  const Matrix w = Matrix::Gaussian(538, 200, &rng);
  Matrix out;
  for (auto _ : state) {
    MatMulInto(x, w, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

void BM_LayerOneForwardSparse(benchmark::State& state) {
  const SparseMatrix x = SparseMatrix::FromDense(LayerOneInput(state.range(0)));
  Rng rng(10);
  const Matrix w = Matrix::Gaussian(538, 200, &rng);
  Matrix out;
  for (auto _ : state) {
    MatMulInto(x, w, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

void BM_LayerOneGradDense(benchmark::State& state) {
  const Matrix x = LayerOneInput(state.range(0));
  Rng rng(11);
  const Matrix g = Matrix::Gaussian(3906, 200, &rng);
  Matrix out;
  for (auto _ : state) {
    MatMulTransposedAInto(x, g, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

void BM_LayerOneGradSparse(benchmark::State& state) {
  const SparseMatrix x = SparseMatrix::FromDense(LayerOneInput(state.range(0)));
  Rng rng(11);
  const Matrix g = Matrix::Gaussian(3906, 200, &rng);
  Matrix out;
  // Training reuses the memoized transpose every epoch; build it up front.
  x.TransposedCached();
  for (auto _ : state) {
    MatMulTransposedAInto(x, g, &out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

void LayerOneDensities(benchmark::internal::Benchmark* b) {
  for (int64_t percent : {1, 2, 5, 10, 25, 67}) b->Arg(percent);
}
BENCHMARK(BM_LayerOneForwardDense)->Apply(LayerOneDensities);
BENCHMARK(BM_LayerOneForwardSparse)->Apply(LayerOneDensities);
BENCHMARK(BM_LayerOneGradDense)->Apply(LayerOneDensities);
BENCHMARK(BM_LayerOneGradSparse)->Apply(LayerOneDensities);

void BM_TopKRow(benchmark::State& state) {
  // Per-row top-k selection as used by TopKAnchors (k = 10 of n columns).
  const int64_t n = state.range(0);
  Rng rng(10);
  Matrix s = Matrix::Gaussian(16, n, &rng);
  int64_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopKRow(s, r, 10));
    r = (r + 1) % s.rows();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TopKRow)->Arg(4000)->Arg(16000);

void BM_ConsistencyLossFused(benchmark::State& state) {
  // The fused O(ed + nd^2) loss: compare its growth to n^2 d by eye.
  const int64_t n = state.range(0);
  AttributedGraph g = BenchGraph(n, 8);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  Rng rng(4);
  Matrix h = Matrix::Gaussian(n, 128, &rng, 0.1);
  for (auto _ : state) {
    Tape tape;
    Var hv = tape.Leaf(h, true);
    Var loss = ag::ConsistencyLoss(&tape, &lap, hv);
    tape.Backward(loss);
    benchmark::DoNotOptimize(tape.grad(hv));
  }
}
BENCHMARK(BM_ConsistencyLossFused)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_GcnForward(benchmark::State& state) {
  const int64_t n = state.range(0);
  AttributedGraph g = BenchGraph(n, 8);
  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  Rng rng(5);
  MultiOrderGcn gcn(2, g.num_attributes(), 128, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcn.ForwardInference(lap, g.attributes()));
  }
}
BENCHMARK(BM_GcnForward)->Arg(1000)->Arg(4000)->Arg(16000);

// One Train() call of one epoch on g aligned with itself.
void TrainOneEpoch(benchmark::State& state, const AttributedGraph& g) {
  GAlignConfig cfg;
  cfg.epochs = 1;
  cfg.embedding_dim = 64;
  for (auto _ : state) {
    Rng run_rng(7);
    MultiOrderGcn gcn(cfg.num_layers, g.num_attributes(), cfg.embedding_dim,
                      &run_rng);
    Trainer trainer(cfg);
    trainer.Train(&gcn, g, g, &run_rng).CheckOK();
    benchmark::DoNotOptimize(gcn.weights());
  }
}

void BM_TrainingEpoch(benchmark::State& state) {
  TrainOneEpoch(state, BenchGraph(state.range(0), 8));
}
BENCHMARK(BM_TrainingEpoch)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

// Douban-like attributes: 538 binary tags, about 5 per node, so layer 1's
// input is sparse enough for the CSR path.
void BM_TrainingEpochSparseTags(benchmark::State& state) {
  TrainOneEpoch(state, BenchGraph(state.range(0), 8, 538, 5.0 / 538));
}
BENCHMARK(BM_TrainingEpochSparseTags)->Arg(2000)->Unit(benchmark::kMillisecond);

// Three layers of n normalized 64-wide embeddings per side.
void ScanInputs(int64_t n, std::vector<Matrix>* hs, std::vector<Matrix>* ht) {
  Rng rng(8);
  for (int l = 0; l < 3; ++l) {
    Matrix a = Matrix::Gaussian(n, 64, &rng);
    a.NormalizeRows();
    hs->push_back(a);
    Matrix b = Matrix::Gaussian(n, 64, &rng);
    b.NormalizeRows();
    ht->push_back(b);
  }
}

void BM_StabilityScan(benchmark::State& state) {
  // The chunked scan of Alg. 2: O(n1 n2 d) time but O(n) extra space.
  const int64_t n = state.range(0);
  std::vector<Matrix> hs, ht;
  ScanInputs(n, &hs, &ht);
  std::vector<double> theta{1.0 / 3, 1.0 / 3, 1.0 / 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScanStability(hs, ht, theta, 0.94));
  }
  state.SetItemsProcessed(state.iterations() * n * n * 64 * 3);
}
BENCHMARK(BM_StabilityScan)->Arg(500)->Arg(1000)->Arg(2000);

void BM_StabilityScanIncremental(benchmark::State& state) {
  // StabilityScanner::Rescan after range(1)% of the rows and columns of the
  // GCN layers changed, spread evenly (100%: layer 0 too, the full scan).
  // The embeddings stay as they are, so no maximum falls and no row or
  // column is rescanned whole: the cell times the changed-row and
  // changed-column passes. Items count the full scan's work, as in
  // BM_StabilityScan, so the 100% cell must match it.
  const int64_t n = state.range(0);
  const int64_t percent = state.range(1);
  std::vector<Matrix> hs, ht;
  ScanInputs(n, &hs, &ht);
  std::vector<double> theta{1.0 / 3, 1.0 / 3, 1.0 / 3};
  std::vector<int64_t> all(n), some;
  std::iota(all.begin(), all.end(), int64_t{0});
  for (int64_t i = 0; percent > 0 && i < n; i += 100 / percent) {
    some.push_back(i);
  }
  StabilityScanner scanner(theta, 0.94);
  scanner.Rescan(hs, ht, {all, all, all}, {all, all, all});
  const std::vector<std::vector<int64_t>> changed =
      percent == 100 ? std::vector<std::vector<int64_t>>{all, all, all}
                     : std::vector<std::vector<int64_t>>{{}, some, some};
  for (auto _ : state) {
    scanner.Rescan(hs, ht, changed, changed);
    benchmark::DoNotOptimize(scanner.Result());
  }
  state.SetItemsProcessed(state.iterations() * n * n * 64 * 3);
}
BENCHMARK(BM_StabilityScanIncremental)
    ->Args({1000, 0})
    ->Args({1000, 25})
    ->Args({1000, 100})
    ->Args({2000, 0})
    ->Args({2000, 25})
    ->Args({2000, 100});

void BM_NormalizedAdjacency(benchmark::State& state) {
  const int64_t n = state.range(0);
  AttributedGraph g = BenchGraph(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.NormalizedAdjacency().ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_NormalizedAdjacency)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace galign

GALIGN_BENCHMARK_MAIN();
