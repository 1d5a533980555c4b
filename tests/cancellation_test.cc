// Deadline-aware cancellation (DESIGN.md §8): every aligner — GAlign and
// all twelve baselines — degrades to a valid best-so-far alignment when its
// RunContext is already expired, RunAligner flags the blown budget, and a
// mid-run deadline stops the trainer early instead of running unbounded.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "align/pipeline.h"
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
#include "core/trainer.h"
#include "graph/generators.h"
#include "graph/noise.h"

namespace galign {
namespace {

AlignmentPair SmallPair(uint64_t seed, int64_t n = 40) {
  Rng rng(seed);
  auto g = BarabasiAlbert(n, 2, &rng).MoveValueOrDie();
  Matrix f = BinaryAttributes(n, 6, 0.3, &rng);
  g = g.WithAttributes(f).MoveValueOrDie();
  NoisyCopyOptions opts;
  opts.structural_noise = 0.1;
  return MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
}

/// GAlign plus the full 12-method baseline roster, sized for test speed.
std::vector<std::unique_ptr<Aligner>> FullRoster() {
  std::vector<std::unique_ptr<Aligner>> roster;
  GAlignConfig galign;
  galign.epochs = 10;
  galign.embedding_dim = 8;
  galign.refinement_iterations = 4;
  roster.push_back(std::make_unique<GAlignAligner>(galign));
  CenalpConfig cenalp;
  cenalp.walks.walks_per_node = 3;
  cenalp.walks.walk_length = 8;
  cenalp.skipgram.epochs = 1;
  cenalp.skipgram.dim = 16;
  cenalp.expansion_rounds = 1;
  roster.push_back(std::make_unique<CenalpAligner>(cenalp));
  PaleConfig pale;
  pale.embedding_epochs = 10;
  pale.embedding_dim = 16;
  roster.push_back(std::make_unique<PaleAligner>(pale));
  roster.push_back(std::make_unique<RegalAligner>());
  roster.push_back(std::make_unique<IsoRankAligner>());
  roster.push_back(std::make_unique<FinalAligner>());
  DeepLinkConfig deeplink;
  deeplink.walks.walks_per_node = 3;
  deeplink.walks.walk_length = 8;
  deeplink.skipgram.epochs = 1;
  deeplink.skipgram.dim = 16;
  roster.push_back(std::make_unique<DeepLinkAligner>(deeplink));
  IoneConfig ione;
  ione.epochs = 10;
  ione.dim = 16;
  roster.push_back(std::make_unique<IoneAligner>(ione));
  roster.push_back(std::make_unique<NetAlignAligner>());
  roster.push_back(std::make_unique<UniAlignAligner>());
  roster.push_back(std::make_unique<DegreeRankAligner>());
  roster.push_back(std::make_unique<AttributeOnlyAligner>());
  roster.push_back(std::make_unique<RandomAligner>());
  return roster;
}

TEST(CancellationTest, ExpiredDeadlineStillYieldsResultForEveryMethod) {
  AlignmentPair pair = SmallPair(1);
  auto roster = FullRoster();
  ASSERT_EQ(roster.size(), 13u);  // GAlign + the 12 baselines
  RunContext expired = RunContext::WithTimeout(0.0);
  ASSERT_TRUE(expired.DeadlineExceeded());

  for (const auto& aligner : roster) {
    Rng rng(2);
    RunResult r = RunAligner(aligner.get(), pair, 0.1, &rng, expired);
    ASSERT_TRUE(r.status.ok())
        << aligner->name() << ": " << r.status.ToString();
    EXPECT_TRUE(r.deadline_exceeded) << aligner->name();
    EXPECT_FALSE(r.cancelled) << aligner->name();
  }
}

TEST(CancellationTest, PreCancelledTokenIsFlaggedAndStillYieldsResult) {
  AlignmentPair pair = SmallPair(3);
  CancelToken token;
  token.Cancel();
  RunContext ctx;
  ctx.SetToken(token);
  ASSERT_TRUE(ctx.ShouldStop());
  ASSERT_FALSE(ctx.DeadlineExceeded());

  GAlignConfig cfg;
  cfg.epochs = 10;
  cfg.embedding_dim = 8;
  cfg.refinement_iterations = 4;
  GAlignAligner aligner(cfg);
  Rng rng(4);
  RunResult r = RunAligner(&aligner, pair, 0.0, &rng, ctx);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.deadline_exceeded);
}

TEST(CancellationTest, UnboundedContextLeavesFlagsClear) {
  AlignmentPair pair = SmallPair(5);
  RegalAligner aligner;
  Rng rng(6);
  RunResult r = RunAligner(&aligner, pair, 0.0, &rng);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.deadline_exceeded);
  EXPECT_FALSE(r.cancelled);
}

TEST(CancellationTest, TrainerStopsEarlyOnMidRunDeadline) {
  AlignmentPair pair = SmallPair(7);
  GAlignConfig cfg;
  cfg.epochs = 100000;  // would run for minutes unbounded
  cfg.embedding_dim = 16;
  Rng rng(8);
  MultiOrderGcn gcn(cfg.num_layers, pair.source.num_attributes(),
                    cfg.embedding_dim, &rng);
  Trainer trainer(cfg);
  Status st = trainer.Train(&gcn, pair.source, pair.target, &rng, {},
                            RunContext::WithTimeout(0.2));
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(trainer.report().deadline_exceeded);
  EXPECT_LT(trainer.report().epochs_run, cfg.epochs);
  // The wound-down weights are healthy, not mid-step garbage.
  for (const Matrix& w : gcn.weights()) EXPECT_TRUE(w.AllFinite());
}

TEST(CancellationTest, CancelTokenSharedAcrossCopiesStops) {
  CancelToken token;
  RunContext ctx = RunContext::WithTimeout(3600.0);
  ctx.SetToken(token);
  RunContext copy = ctx;  // copies observe the same flag
  EXPECT_FALSE(copy.ShouldStop());
  token.Cancel();
  EXPECT_TRUE(copy.ShouldStop());
  EXPECT_TRUE(copy.Cancelled());
  EXPECT_FALSE(copy.DeadlineExceeded());
}

}  // namespace
}  // namespace galign
