// Crash-safe checkpoint/resume (DESIGN.md §8): a training run killed after
// a checkpoint resumes from it and finishes bit-identical to the
// uninterrupted run; torn/corrupt checkpoints are skipped in favour of the
// previous valid one; checkpoint-save failures never kill training.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/fault.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "graph/generators.h"
#include "graph/noise.h"

namespace galign {
namespace {

class CheckpointResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("galign_ckpt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmAll();
    std::filesystem::remove_all(dir_);
  }
  std::string Dir(const std::string& sub) { return (dir_ / sub).string(); }
  std::filesystem::path dir_;
};

AlignmentPair SmallPair(uint64_t seed) {
  Rng rng(seed);
  auto g = BarabasiAlbert(30, 2, &rng).MoveValueOrDie();
  Matrix f = BinaryAttributes(30, 5, 0.3, &rng);
  g = g.WithAttributes(f).MoveValueOrDie();
  NoisyCopyOptions opts;
  opts.structural_noise = 0.1;
  return MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
}

GAlignConfig FastConfig() {
  GAlignConfig cfg;
  cfg.epochs = 12;
  cfg.embedding_dim = 8;
  cfg.num_augmentations = 2;
  return cfg;
}

/// Trains from scratch under `cfg` with a fixed RNG seed and returns the
/// final weights (plus the run's report through `report`).
std::vector<Matrix> TrainWeights(const GAlignConfig& cfg,
                                 const AlignmentPair& pair,
                                 TrainReport* report = nullptr,
                                 Status* status = nullptr) {
  Rng rng(7);
  MultiOrderGcn gcn(cfg.num_layers, pair.source.num_attributes(),
                    cfg.embedding_dim, &rng);
  Trainer trainer(cfg);
  Status st = trainer.Train(&gcn, pair.source, pair.target, &rng);
  if (status != nullptr) *status = st;
  if (report != nullptr) *report = trainer.report();
  return gcn.weights();
}

void ExpectBitIdentical(const std::vector<Matrix>& a,
                        const std::vector<Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].rows(), b[i].rows());
    ASSERT_EQ(a[i].cols(), b[i].cols());
    for (int64_t r = 0; r < a[i].rows(); ++r) {
      for (int64_t c = 0; c < a[i].cols(); ++c) {
        // Exact (bit-level) equality is the resume contract.
        ASSERT_EQ(a[i](r, c), b[i](r, c))
            << "layer " << i << " weight (" << r << ", " << c << ")";
      }
    }
  }
}

TEST_F(CheckpointResumeTest, ResumedRunIsBitIdenticalToUninterrupted) {
  AlignmentPair pair = SmallPair(1);

  // Reference: 12 uninterrupted epochs (checkpointing on — writing
  // snapshots must not perturb the math).
  GAlignConfig ref_cfg = FastConfig();
  ref_cfg.checkpoint_dir = Dir("ref");
  ref_cfg.checkpoint_every = 4;
  TrainReport ref_report;
  Status ref_status;
  auto ref = TrainWeights(ref_cfg, pair, &ref_report, &ref_status);
  ASSERT_TRUE(ref_status.ok()) << ref_status.ToString();
  EXPECT_GT(ref_report.checkpoints_written, 0);

  // "Killed" run: the process dies after epoch 6 (simulated by a run whose
  // epoch budget ends there — the checkpoint on disk is exactly what a
  // kill -9 after that epoch's snapshot would leave).
  GAlignConfig cut_cfg = FastConfig();
  cut_cfg.epochs = 6;
  cut_cfg.checkpoint_dir = Dir("crash");
  cut_cfg.checkpoint_every = 4;
  Status cut_status;
  TrainWeights(cut_cfg, pair, nullptr, &cut_status);
  ASSERT_TRUE(cut_status.ok());

  // Resume with the full budget: must pick up at epoch 6 and finish
  // bit-identical to the uninterrupted reference.
  GAlignConfig resume_cfg = FastConfig();
  resume_cfg.checkpoint_dir = Dir("crash");
  resume_cfg.checkpoint_every = 4;
  resume_cfg.resume_from_checkpoint = true;
  TrainReport resume_report;
  Status resume_status;
  auto resumed = TrainWeights(resume_cfg, pair, &resume_report,
                              &resume_status);
  ASSERT_TRUE(resume_status.ok()) << resume_status.ToString();
  EXPECT_TRUE(resume_report.resumed);
  EXPECT_EQ(resume_report.resume_epoch, 6);
  ExpectBitIdentical(ref, resumed);
}

TEST_F(CheckpointResumeTest, FallsBackPastTruncatedNewestCheckpoint) {
  AlignmentPair pair = SmallPair(2);

  GAlignConfig cfg = FastConfig();
  cfg.epochs = 8;
  cfg.checkpoint_every = 4;

  // Reference: uninterrupted 8 epochs, no checkpointing.
  auto ref = TrainWeights(cfg, pair);

  // Write checkpoints at epochs 4 and 8, then tear the newest one in half
  // (a torn write that slipped past the rename barrier, e.g. media fault).
  GAlignConfig ckpt_cfg = cfg;
  ckpt_cfg.checkpoint_dir = Dir("state");
  Status st;
  TrainWeights(ckpt_cfg, pair, nullptr, &st);
  ASSERT_TRUE(st.ok());
  const std::string newest = Dir("state") + "/ckpt_00000008";
  ASSERT_TRUE(std::filesystem::exists(newest));
  std::string content;
  {
    std::ifstream in(newest);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(newest, std::ios::trunc);
    out << content.substr(0, content.size() / 2);
  }

  // Resume must skip the torn epoch-8 file, restore epoch 4, replay 4..7,
  // and still land bit-identical on the reference weights.
  GAlignConfig resume_cfg = ckpt_cfg;
  resume_cfg.resume_from_checkpoint = true;
  TrainReport report;
  auto resumed = TrainWeights(resume_cfg, pair, &report, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.resume_epoch, 4);
  ExpectBitIdentical(ref, resumed);
}

TEST_F(CheckpointResumeTest, InjectedLoadFaultFallsBackToOlderCheckpoint) {
  AlignmentPair pair = SmallPair(3);
  GAlignConfig cfg = FastConfig();
  cfg.epochs = 8;
  cfg.checkpoint_every = 4;
  cfg.checkpoint_dir = Dir("state");
  Status st;
  TrainWeights(cfg, pair, nullptr, &st);
  ASSERT_TRUE(st.ok());

  // First checkpoint read (the newest) fails; the loader must fall back.
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  fault::Arm("io.checkpoint.load", spec);
  GAlignConfig resume_cfg = cfg;
  resume_cfg.resume_from_checkpoint = true;
  TrainReport report;
  TrainWeights(resume_cfg, pair, &report, &st);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.resume_epoch, 4);
}

TEST_F(CheckpointResumeTest, SaveFailureIsNonFatal) {
  AlignmentPair pair = SmallPair(4);

  GAlignConfig plain = FastConfig();
  auto ref = TrainWeights(plain, pair);

  // Every checkpoint write fails; training must still complete, with the
  // exact same result as a run without checkpointing.
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  spec.repeat = 1000;
  fault::Arm("io.checkpoint.save", spec);
  GAlignConfig cfg = FastConfig();
  cfg.checkpoint_dir = Dir("state");
  cfg.checkpoint_every = 4;
  TrainReport report;
  Status st;
  auto weights = TrainWeights(cfg, pair, &report, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.checkpoints_written, 0);
  ExpectBitIdentical(ref, weights);
}

TEST_F(CheckpointResumeTest, AllCheckpointsCorruptMeansFreshStart) {
  AlignmentPair pair = SmallPair(5);
  GAlignConfig cfg = FastConfig();
  cfg.epochs = 8;
  cfg.checkpoint_every = 4;
  cfg.checkpoint_dir = Dir("state");
  Status st;
  TrainWeights(cfg, pair, nullptr, &st);
  ASSERT_TRUE(st.ok());

  // Corrupt every file in the state dir (checkpoints and manifest).
  for (const auto& entry :
       std::filesystem::directory_iterator(Dir("state"))) {
    std::ofstream out(entry.path(), std::ios::trunc);
    out << "garbage that fails every checksum\n";
  }

  GAlignConfig resume_cfg = cfg;
  resume_cfg.resume_from_checkpoint = true;
  TrainReport report;
  auto weights = TrainWeights(resume_cfg, pair, &report, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_FALSE(report.resumed);  // degraded to a clean fresh start

  // And the fresh start is still the correct deterministic result.
  GAlignConfig plain = FastConfig();
  plain.epochs = 8;
  ExpectBitIdentical(TrainWeights(plain, pair), weights);
}

// The epoch a resumed run restored from stays pinned through the run's own
// saves: restore and save go through one manager, so its retention pass
// sees the pin that LoadLatest set.
TEST_F(CheckpointResumeTest, ResumedRunKeepsItsRestoredCheckpoint) {
  AlignmentPair pair = SmallPair(6);
  GAlignConfig cfg = FastConfig();
  cfg.epochs = 8;
  cfg.checkpoint_every = 4;
  cfg.checkpoint_dir = Dir("state");
  Status st;
  TrainWeights(cfg, pair, nullptr, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Epoch 8 and a newer epoch 12 pass their CRC but are not checkpoints, so
  // the resume falls back to epoch 4, and retention counts 12 and 8 as the
  // two newest valid generations when the resumed run saves epoch 8.
  const std::string foreign = AppendCrc32Trailer("not a checkpoint\n");
  for (const char* name : {"/ckpt_00000008", "/ckpt_00000012"}) {
    ASSERT_TRUE(AtomicWriteFile(Dir("state") + name, foreign).ok());
  }
  GAlignConfig resume_cfg = cfg;
  resume_cfg.resume_from_checkpoint = true;
  TrainReport report;
  TrainWeights(resume_cfg, pair, &report, &st);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(report.resume_epoch, 4);
  EXPECT_TRUE(std::filesystem::exists(Dir("state") + "/ckpt_00000004"));
}

// Retention touches only `ckpt_` plus exactly 8 digits with a value of at
// least 1: a stray file outside that range is neither listed nor deleted.
TEST_F(CheckpointResumeTest, RetentionLeavesNamesOutsideTheRangeAlone) {
  const char* strays[] = {"ckpt_4294967297", "ckpt_123456789",
                          "ckpt_00000000"};
  std::filesystem::create_directories(Dir("state"));
  for (const char* name : strays) {
    std::ofstream(Dir("state") + "/" + name) << "not a generation\n";
  }
  TrainerCheckpoint ckpt;
  ckpt.epoch = 1;
  ckpt.weights.push_back(Matrix(2, 2, 1.0));
  CheckpointManager mgr(Dir("state"));
  ASSERT_TRUE(mgr.Save(ckpt).ok());
  for (const char* name : strays) {
    EXPECT_TRUE(std::filesystem::exists(Dir("state") + "/" + name)) << name;
  }
  auto latest = mgr.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.ValueOrDie().epoch, 1);
}

// A checkpoint with every field set; `engine` ends at the state it records.
TrainerCheckpoint SampleCheckpoint(std::mt19937_64* engine) {
  TrainerCheckpoint ckpt;
  ckpt.epoch = 7;
  ckpt.lr = 0.01 / 3.0;  // not exactly representable: exercises hex codec
  ckpt.adam_step = 21;
  Matrix w(2, 3);
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) w(r, c) = 0.1 * (r * 3.0 + c) - 0.2;
  }
  ckpt.weights = {w};
  ckpt.adam_m = {w};
  ckpt.adam_v = {w};
  ckpt.snapshot = {w};
  ckpt.snapshot_loss = 1.5;
  ckpt.best_loss = 1.25;
  ckpt.epochs_without_improvement = 2;
  ckpt.loss_history = {3.0, 2.0, 1.5};
  ckpt.epochs_run = 7;
  ckpt.steps_applied = 6;
  ckpt.rollbacks = 1;
  ckpt.rollback_epochs = {3};
  ckpt.final_lr = 0.005;
  ckpt.final_loss = 1.5;
  engine->seed(123);
  engine->discard(17);
  std::ostringstream os;
  os << *engine;
  ckpt.rng_state = os.str();
  return ckpt;
}

TEST_F(CheckpointResumeTest, CheckpointSerializationRoundTrips) {
  std::mt19937_64 engine;
  const TrainerCheckpoint ckpt = SampleCheckpoint(&engine);
  const Matrix& w = ckpt.weights[0];
  auto parsed = ParseCheckpoint(SerializeCheckpoint(ckpt), "test");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const TrainerCheckpoint& back = parsed.ValueOrDie();
  EXPECT_EQ(back.epoch, 7);
  EXPECT_EQ(back.lr, ckpt.lr);  // bit-exact through the hex codec
  EXPECT_EQ(back.adam_step, 21);
  ASSERT_EQ(back.weights.size(), 1u);
  EXPECT_EQ(back.weights[0](1, 2), w(1, 2));
  EXPECT_EQ(back.loss_history, ckpt.loss_history);
  EXPECT_EQ(back.rollback_epochs, ckpt.rollback_epochs);
  EXPECT_EQ(back.rng_state, ckpt.rng_state);

  // The restored engine continues the exact same stream.
  std::mt19937_64 restored;
  std::istringstream is(back.rng_state);
  is >> restored;
  EXPECT_EQ(restored(), engine());
}

// Counts and shapes within their caps but beyond what the payload holds are
// typed IOErrors naming the field, rejected before anything is sized.
TEST_F(CheckpointResumeTest, ParseRejectsCountsLargerThanPayload) {
  std::mt19937_64 engine;
  const std::string payload = SerializeCheckpoint(SampleCheckpoint(&engine));
  const std::pair<std::string, std::string> hostile[] = {
      {"loss_history 3 ", "loss_history 16000000 "},
      {"rollback_epochs 1 ", "rollback_epochs 1000000 "},
      {"weights 1\n2 3\n", "weights 1\n65536 65536\n"},
  };
  for (const auto& [from, to] : hostile) {
    std::string bytes = payload;
    const size_t at = bytes.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    bytes.replace(at, from.size(), to);
    auto r = ParseCheckpoint(bytes, "hostile");
    ASSERT_FALSE(r.ok()) << to;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
    const std::string field = from.substr(0, from.find(' '));
    EXPECT_NE(r.status().message().find("'" + field + "'"), std::string::npos)
        << r.status().message();
  }
}

TEST_F(CheckpointResumeTest, ManagerReportsNotFoundOnEmptyDir) {
  CheckpointManager mgr(Dir("empty"));
  auto r = mgr.LoadLatest();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace galign
