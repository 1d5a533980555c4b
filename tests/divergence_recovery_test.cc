// Divergence recovery and deterministic fault injection (DESIGN.md §7).
//
// The fault facility is exercised directly (exact call counts, determinism,
// disarm semantics), then through the trainer: a NaN injected into the
// gradient stream must trigger exactly one rollback, decay the learning
// rate, and still produce a finite final loss — bitwise reproducibly across
// two identical runs. Solver budget semantics (degraded-but-usable results
// with honest ConvergenceReports) are covered at the end.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baselines/final.h"
#include "baselines/isorank.h"
#include "common/fault.h"
#include "core/galign.h"
#include "core/refinement.h"
#include "core/trainer.h"
#include "graph/generators.h"
#include "graph/noise.h"
#include "la/decomposition.h"

namespace galign {
namespace {

class DivergenceRecoveryTest : public ::testing::Test {
 protected:
  // Leave no armed site behind regardless of how a test exits.
  void TearDown() override { fault::DisarmAll(); }
};

AttributedGraph SmallGraph(uint64_t seed, int64_t n = 30) {
  Rng rng(seed);
  auto g = BarabasiAlbert(n, 2, &rng).MoveValueOrDie();
  Matrix f = BinaryAttributes(n, 5, 0.3, &rng);
  return g.WithAttributes(f).MoveValueOrDie();
}

GAlignConfig FastConfig() {
  GAlignConfig cfg;
  cfg.epochs = 12;
  cfg.embedding_dim = 8;
  cfg.num_augmentations = 2;
  cfg.early_stop_patience = 0;  // run all epochs: exact counts matter here
  return cfg;
}

// --- Fault facility unit tests -------------------------------------------

TEST_F(DivergenceRecoveryTest, FaultFiresAtExactCallCount) {
  fault::Spec spec;
  spec.kind = fault::Kind::kNaN;
  spec.at_call = 2;
  fault::Arm("unit.scalar", spec);
  EXPECT_TRUE(std::isfinite(fault::Perturb("unit.scalar", 1.0)));  // call 0
  EXPECT_TRUE(std::isfinite(fault::Perturb("unit.scalar", 1.0)));  // call 1
  EXPECT_TRUE(std::isnan(fault::Perturb("unit.scalar", 1.0)));     // call 2
  EXPECT_TRUE(std::isfinite(fault::Perturb("unit.scalar", 1.0)));  // call 3
  EXPECT_EQ(fault::CallCount("unit.scalar"), 4);
}

TEST_F(DivergenceRecoveryTest, RepeatFiresConsecutiveCalls) {
  fault::Spec spec;
  spec.kind = fault::Kind::kInf;
  spec.at_call = 1;
  spec.repeat = 2;
  fault::Arm("unit.scalar", spec);
  EXPECT_TRUE(std::isfinite(fault::Perturb("unit.scalar", 0.5)));
  EXPECT_TRUE(std::isinf(fault::Perturb("unit.scalar", 0.5)));
  EXPECT_TRUE(std::isinf(fault::Perturb("unit.scalar", 0.5)));
  EXPECT_TRUE(std::isfinite(fault::Perturb("unit.scalar", 0.5)));
}

TEST_F(DivergenceRecoveryTest, CorruptBufferIsDeterministic) {
  auto corrupt_once = [] {
    std::vector<double> buf(64, 1.0);
    fault::Spec spec;
    spec.kind = fault::Kind::kNaN;
    spec.seed = 77;
    fault::Arm("unit.buffer", spec);
    fault::CorruptBuffer("unit.buffer", buf.data(),
                         static_cast<int64_t>(buf.size()));
    for (size_t i = 0; i < buf.size(); ++i) {
      if (std::isnan(buf[i])) return static_cast<int64_t>(i);
    }
    return int64_t{-1};
  };
  const int64_t first = corrupt_once();
  ASSERT_GE(first, 0) << "armed kNaN fault must corrupt exactly one entry";
  EXPECT_EQ(corrupt_once(), first) << "same seed must pick the same entry";
}

TEST_F(DivergenceRecoveryTest, DisarmedSitesAreInert) {
  fault::Spec spec;
  spec.kind = fault::Kind::kNaN;
  fault::Arm("unit.scalar", spec);
  fault::Disarm("unit.scalar");
  EXPECT_DOUBLE_EQ(fault::Perturb("unit.scalar", 3.5), 3.5);
  EXPECT_EQ(fault::CallCount("unit.scalar"), 0);
  EXPECT_FALSE(fault::ShouldFailIO("unit.io"));
}

// --- Trainer recovery -----------------------------------------------------

struct TrainRun {
  Status status = Status::OK();
  TrainReport report;
  std::vector<double> losses;
  std::vector<Matrix> weights;
};

TrainRun RunTraining(const GAlignConfig& cfg) {
  AttributedGraph g = SmallGraph(11);
  Rng pair_rng(12);
  NoisyCopyOptions opts;
  opts.structural_noise = 0.1;
  auto pair = MakeNoisyCopyPair(g, opts, &pair_rng).MoveValueOrDie();

  Rng rng(13);
  MultiOrderGcn gcn(cfg.num_layers, g.num_attributes(), cfg.embedding_dim,
                    &rng);
  Trainer trainer(cfg);
  TrainRun run;
  run.status = trainer.Train(&gcn, pair.source, pair.target, &rng);
  run.report = trainer.report();
  run.losses = trainer.loss_history();
  run.weights = gcn.weights();
  return run;
}

TEST_F(DivergenceRecoveryTest, TrainerRecoversFromInjectedNaNGradient) {
  GAlignConfig cfg = FastConfig();
  fault::Spec spec;
  spec.kind = fault::Kind::kNaN;
  spec.at_call = 5;  // corrupt the gradient of epoch 5
  fault::Arm("train.grad", spec);

  TrainRun run = RunTraining(cfg);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.report.rollbacks, 1);
  ASSERT_EQ(run.report.rollback_epochs.size(), 1u);
  EXPECT_EQ(run.report.rollback_epochs[0], 5);
  EXPECT_TRUE(run.report.recovered());
  EXPECT_FALSE(run.report.diverged);
  EXPECT_TRUE(std::isfinite(run.report.final_loss));
  EXPECT_DOUBLE_EQ(run.report.final_lr,
                   cfg.learning_rate * cfg.rollback_lr_decay);
  // The poisoned epoch is not recorded; every recorded loss is finite.
  EXPECT_EQ(run.losses.size(), static_cast<size_t>(cfg.epochs - 1));
  for (double l : run.losses) EXPECT_TRUE(std::isfinite(l));
  EXPECT_EQ(run.report.epochs_run, cfg.epochs);
  EXPECT_EQ(run.report.steps_applied, cfg.epochs - 1);
}

TEST_F(DivergenceRecoveryTest, RecoveryIsBitwiseReproducible) {
  GAlignConfig cfg = FastConfig();
  auto run_with_fault = [&] {
    fault::Spec spec;
    spec.kind = fault::Kind::kNaN;
    spec.at_call = 5;
    fault::Arm("train.grad", spec);
    TrainRun run = RunTraining(cfg);
    fault::DisarmAll();
    return run;
  };
  TrainRun a = run_with_fault();
  TrainRun b = run_with_fault();
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (size_t i = 0; i < a.losses.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.losses[i], b.losses[i]) << "loss " << i;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (size_t l = 0; l < a.weights.size(); ++l) {
    ASSERT_EQ(a.weights[l].size(), b.weights[l].size());
    const double* pa = a.weights[l].data();
    const double* pb = b.weights[l].data();
    for (int64_t i = 0; i < a.weights[l].size(); ++i) {
      ASSERT_EQ(pa[i], pb[i]) << "layer " << l << " weight " << i;
    }
  }
  EXPECT_EQ(a.report.rollback_epochs, b.report.rollback_epochs);
}

TEST_F(DivergenceRecoveryTest, TrainerGivesUpAfterRollbackBudget) {
  GAlignConfig cfg = FastConfig();
  cfg.max_rollbacks = 2;
  fault::Spec spec;
  spec.kind = fault::Kind::kNaN;
  spec.at_call = 0;
  spec.repeat = 1000;  // every epoch's gradient is poisoned
  fault::Arm("train.grad", spec);

  TrainRun run = RunTraining(cfg);
  EXPECT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kNotConverged);
  EXPECT_TRUE(run.report.diverged);
  EXPECT_EQ(run.report.rollbacks, cfg.max_rollbacks + 1);
  EXPECT_FALSE(run.report.recovered());
}

TEST_F(DivergenceRecoveryTest, AlignerReportsTrainingThatGaveUp) {
  AttributedGraph g = SmallGraph(11);
  Rng pair_rng(12);
  NoisyCopyOptions opts;
  opts.structural_noise = 0.1;
  auto pair = MakeNoisyCopyPair(g, opts, &pair_rng).MoveValueOrDie();
  GAlignConfig cfg = FastConfig();
  cfg.max_rollbacks = 2;
  GAlignAligner aligner(cfg);
  // A healthy run first: a stale record would then read as a healthy one.
  ASSERT_TRUE(aligner.Align(pair.source, pair.target, {}).ok());
  ASSERT_FALSE(aligner.last_train_report().diverged);

  fault::Spec spec;
  spec.kind = fault::Kind::kNaN;
  spec.at_call = 0;
  spec.repeat = 1000;  // every epoch's gradient is poisoned
  for (const bool topk : {false, true}) {
    SCOPED_TRACE(topk ? "AlignTopK" : "Align");
    fault::Arm("train.grad", spec);
    const Status status =
        topk ? aligner.AlignTopK(pair.source, pair.target, {}, RunContext(), 3)
                   .status()
             : aligner.Align(pair.source, pair.target, {}).status();
    fault::DisarmAll();
    EXPECT_EQ(status.code(), StatusCode::kNotConverged) << status.ToString();
    EXPECT_TRUE(aligner.last_train_report().diverged);
    EXPECT_EQ(aligner.last_train_report().rollbacks, cfg.max_rollbacks + 1);
    EXPECT_TRUE(aligner.last_refinement_scores().empty());
  }
}

TEST_F(DivergenceRecoveryTest, ZeroRollbackBudgetFailsFast) {
  GAlignConfig cfg = FastConfig();
  cfg.max_rollbacks = 0;
  fault::Spec spec;
  spec.kind = fault::Kind::kNaN;
  spec.at_call = 3;
  fault::Arm("train.grad", spec);

  TrainRun run = RunTraining(cfg);
  EXPECT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kNotConverged);
  EXPECT_TRUE(run.report.diverged);
}

TEST_F(DivergenceRecoveryTest, TrainerRecoversFromInjectedNaNLoss) {
  GAlignConfig cfg = FastConfig();
  fault::Spec spec;
  spec.kind = fault::Kind::kNaN;
  spec.at_call = 4;
  fault::Arm("train.loss", spec);

  TrainRun run = RunTraining(cfg);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.report.rollbacks, 1);
  EXPECT_TRUE(std::isfinite(run.report.final_loss));
  // The rejected epoch never reaches the Adam step.
  EXPECT_EQ(run.report.steps_applied, cfg.epochs - 1);
}

TEST_F(DivergenceRecoveryTest, GradientExplosionThresholdTriggersRollback) {
  GAlignConfig cfg = FastConfig();
  cfg.max_grad_norm = 1e-12;  // everything counts as an explosion
  cfg.max_rollbacks = 1;
  TrainRun run = RunTraining(cfg);
  EXPECT_FALSE(run.status.ok());
  EXPECT_EQ(run.status.code(), StatusCode::kNotConverged);
  EXPECT_GE(run.report.rollbacks, 1);
}

// --- Solver convergence budgets -------------------------------------------

TEST_F(DivergenceRecoveryTest, JacobiReportsDegradedUnderTinyBudget) {
  Rng rng(21);
  Matrix m(12, 12);
  for (int64_t r = 0; r < 12; ++r) {
    for (int64_t c = r; c < 12; ++c) {
      m(r, c) = m(c, r) = rng.Uniform(-1.0, 1.0);
    }
  }
  auto full = SymmetricEigen(m).MoveValueOrDie();
  EXPECT_TRUE(full.report.converged);

  auto tiny = SymmetricEigen(m, /*max_sweeps=*/1).MoveValueOrDie();
  EXPECT_FALSE(tiny.report.converged);
  EXPECT_TRUE(tiny.report.degraded);
  EXPECT_EQ(tiny.report.iterations, 1);
  EXPECT_GT(tiny.report.residual, 0.0);
  // Degraded but usable: eigenvectors are still finite.
  EXPECT_TRUE(tiny.eigenvectors.AllFinite());
}

TEST_F(DivergenceRecoveryTest, PowerIterationReportsBudgetExhaustion) {
  Matrix m(6, 6);
  for (int64_t r = 0; r < 6; ++r) {
    for (int64_t c = 0; c < 6; ++c) m(r, c) = 1.0 / (1.0 + r + c);
  }
  ConvergenceReport report;
  auto value =
      PowerIterationTopEigenvalue(m, /*max_iters=*/2, /*tol=*/0.0, &report);
  ASSERT_TRUE(value.ok());
  EXPECT_FALSE(report.converged);
  EXPECT_TRUE(report.degraded);
  EXPECT_TRUE(std::isfinite(value.ValueOrDie()));
}

TEST_F(DivergenceRecoveryTest, IsoRankReportsNonConvergenceUnderTinyBudget) {
  Rng rng(22);
  auto g = BarabasiAlbert(25, 2, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(25, 4, 0.3, &rng)).MoveValueOrDie();
  NoisyCopyOptions opts;
  auto pair = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();

  IsoRankConfig tight;
  tight.max_iterations = 1;
  tight.tolerance = 1e-15;
  IsoRankAligner strict(tight);
  auto s = strict.Align(pair.source, pair.target, {});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.ValueOrDie().AllFinite()) << "degraded result must be usable";
  EXPECT_FALSE(strict.last_report().converged);
  EXPECT_TRUE(strict.last_report().degraded);
  EXPECT_EQ(strict.last_report().iterations, 1);

  IsoRankConfig roomy;  // a generous budget converges on this small pair
  roomy.max_iterations = 500;
  IsoRankAligner loose(roomy);
  ASSERT_TRUE(loose.Align(pair.source, pair.target, {}).ok());
  EXPECT_TRUE(loose.last_report().converged);
  EXPECT_LT(loose.last_report().iterations, roomy.max_iterations);
}

TEST_F(DivergenceRecoveryTest, ResidualPerturbationDelaysIsoRankConvergence) {
  Rng rng(23);
  auto g = BarabasiAlbert(20, 2, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(20, 4, 0.3, &rng)).MoveValueOrDie();
  NoisyCopyOptions opts;
  auto pair = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();

  // Every residual check reads +inf — the loop can never observe
  // convergence and must exhaust its budget and degrade. (kPerturb would be
  // unsuitable here: its signed noise can push the residual below zero,
  // which would satisfy `delta < tolerance`.)
  fault::Spec spec;
  spec.kind = fault::Kind::kInf;
  spec.at_call = 0;
  spec.repeat = 1000000;
  fault::Arm("solver.isorank.residual", spec);

  IsoRankConfig cfg;
  cfg.max_iterations = 5;
  IsoRankAligner aligner(cfg);
  auto s = aligner.Align(pair.source, pair.target, {});
  ASSERT_TRUE(s.ok());
  EXPECT_TRUE(s.ValueOrDie().AllFinite());
  EXPECT_FALSE(aligner.last_report().converged);
  EXPECT_EQ(aligner.last_report().iterations, cfg.max_iterations);
}

TEST_F(DivergenceRecoveryTest, FinalReportsConvergence) {
  Rng rng(24);
  auto g = BarabasiAlbert(20, 2, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(20, 4, 0.3, &rng)).MoveValueOrDie();
  NoisyCopyOptions opts;
  auto pair = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
  FinalAligner aligner;
  ASSERT_TRUE(aligner.Align(pair.source, pair.target, {}).ok());
  const ConvergenceReport& report = aligner.last_report();
  EXPECT_TRUE(report.converged || report.degraded);
  EXPECT_GT(report.iterations, 0);
  EXPECT_FALSE(report.ToString().empty());
}

TEST_F(DivergenceRecoveryTest, RefinementToleranceStopsEarly) {
  Rng rng(25);
  auto g = BarabasiAlbert(25, 2, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(25, 5, 0.4, &rng)).MoveValueOrDie();

  GAlignConfig cfg = FastConfig();
  cfg.refinement_iterations = 20;
  cfg.refinement_tolerance = 0.5;  // very lax: stop as soon as g(S) settles
  Rng train_rng(26);
  MultiOrderGcn gcn(cfg.num_layers, g.num_attributes(), cfg.embedding_dim,
                    &train_rng);
  Trainer trainer(cfg);
  ASSERT_TRUE(trainer.Train(&gcn, g, g, &train_rng).ok());
  auto refined = RefineAlignment(gcn, g, g, cfg).MoveValueOrDie();
  EXPECT_TRUE(refined.report.converged);
  EXPECT_LT(refined.report.iterations, cfg.refinement_iterations);
  EXPECT_TRUE(refined.alignment.AllFinite());
}

}  // namespace
}  // namespace galign
