// The serving subsystem's contract tests (DESIGN.md §12): the immutable
// AlignmentIndex artifact (build / serialize / verify-or-reject load /
// generation fallback), AlignServer admission control and load shedding,
// degraded-mode answers, and the typed-failure surface of both under
// injected faults. The invariant every test circles back to: an admitted
// request always resolves — full answer, marked degraded answer, or typed
// rejection — and overload never crashes or hangs.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <vector>
#include <unistd.h>

#include "common/durable_io.h"
#include "common/fault.h"
#include "core/checkpoint.h"
#include "core/galign.h"
#include "core/model_io.h"
#include "graph/ann/ann.h"
#include "graph/ann/ann_io.h"
#include "graph/generators.h"
#include "graph/noise.h"
#include "serve/alignment_index.h"
#include "serve/client.h"
#include "serve/server.h"

namespace galign {
namespace {

// The pair and training configuration of the suite's shared artifact.
AlignmentPair ArtifactPair() {
  Rng rng(11);
  auto g = BarabasiAlbert(60, 3, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(60, 8, 0.3, &rng)).MoveValueOrDie();
  NoisyCopyOptions opts;
  opts.structural_noise = 0.05;
  return MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
}

GAlignConfig ArtifactConfig() {
  GAlignConfig config;
  config.epochs = 4;
  config.embedding_dim = 16;
  return config;
}

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const AlignmentPair pair = ArtifactPair();
    AlignmentIndexOptions options;
    options.anchor_k = 5;
    auto built = AlignmentIndex::Build(ArtifactConfig(), pair.source,
                                       pair.target, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = new std::shared_ptr<const AlignmentIndex>(built.ValueOrDie());
  }
  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
  }

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("galign_serve_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  const std::shared_ptr<const AlignmentIndex>& Index() { return *index_; }
  std::string Dir(const std::string& name) { return (dir_ / name).string(); }

  /// A small, fast server config: one worker so queue depth is
  /// controllable, degraded effort from half-full.
  ServeConfig SmallConfig() {
    ServeConfig config;
    config.workers = 1;
    config.queue_capacity = 4;
    config.default_deadline_ms = 2000.0;
    config.retry_after_ms = 5.0;
    return config;
  }

  std::filesystem::path dir_;
  static std::shared_ptr<const AlignmentIndex>* index_;
};

std::shared_ptr<const AlignmentIndex>* ServeTest::index_ = nullptr;

// --- Artifact ------------------------------------------------------------

TEST_F(ServeTest, BuildProducesCompleteArtifact) {
  const AlignmentIndex& index = *Index();
  EXPECT_EQ(index.num_source(), 60);
  EXPECT_EQ(index.num_target(), 60);
  EXPECT_EQ(index.anchor_k(), 5);
  EXPECT_EQ(index.anchors().rows_computed, index.num_source());
  EXPECT_FALSE(index.ann().truncated());
  EXPECT_GT(index.MemoryBytes(), 0u);
}

void ExpectSameBits(const Matrix& a, const Matrix& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
      << what;
}

// Build trains through TrainAndEmbed with refinement off (the config asks
// for it, the artifact never refines): its model and layers are exactly the
// function's output.
TEST_F(ServeTest, BuildHoldsTrainAndEmbedOutputBitForBit) {
  const AlignmentPair pair = ArtifactPair();
  GAlignConfig config = ArtifactConfig();
  ASSERT_TRUE(config.use_refinement);
  config.use_refinement = false;
  TrainedEmbeddings run;
  ASSERT_TRUE(TrainAndEmbed(config, pair.source, pair.target, Supervision{},
                            RunContext(), /*materialize=*/false,
                            /*ann=*/nullptr, &run)
                  .ok());
  const AlignmentIndex& index = *Index();
  ASSERT_EQ(index.model().weights().size(), run.model->weights().size());
  for (size_t l = 0; l < run.model->weights().size(); ++l) {
    ExpectSameBits(index.model().weights()[l], run.model->weights()[l],
                   "weights " + std::to_string(l));
  }
  auto queries = ConcatLayerRows(run.source_layers, &index.theta(), nullptr);
  auto base = ConcatLayerRows(run.target_layers, nullptr, nullptr);
  ASSERT_TRUE(queries.ok());
  ASSERT_TRUE(base.ok());
  ExpectSameBits(index.queries(), queries.ValueOrDie(), "source layers");
  ExpectSameBits(index.ann().base(), base.ValueOrDie(), "target layers");
}

TEST_F(ServeTest, SerializeIsDeterministic) {
  EXPECT_EQ(Index()->Serialize(), Index()->Serialize());
}

TEST_F(ServeTest, ParseRoundTripsBitExactly) {
  const std::string payload = Index()->Serialize();
  auto back = AlignmentIndex::Parse(payload, "round-trip");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const AlignmentIndex& a = *Index();
  const AlignmentIndex& b = *back.ValueOrDie();
  EXPECT_EQ(a.theta(), b.theta());
  EXPECT_EQ(a.anchors().index, b.anchors().index);
  EXPECT_EQ(a.anchors().score, b.anchors().score);
  ASSERT_EQ(a.queries().rows(), b.queries().rows());
  ASSERT_EQ(a.queries().cols(), b.queries().cols());
  for (int64_t i = 0; i < a.queries().size(); ++i) {
    EXPECT_EQ(a.queries().data()[i], b.queries().data()[i]);
  }
  // The rebuilt ANN index answers identically (that is what the recipe
  // fingerprint asserts; double-check through the public query surface).
  auto qa = a.ann().QueryBatch(a.queries(), 3);
  auto qb = b.ann().QueryBatch(b.queries(), 3);
  ASSERT_TRUE(qa.ok());
  ASSERT_TRUE(qb.ok());
  EXPECT_EQ(qa.ValueOrDie().index, qb.ValueOrDie().index);
  EXPECT_EQ(qa.ValueOrDie().score, qb.ValueOrDie().score);
  EXPECT_EQ(payload, b.Serialize());
}

TEST_F(ServeTest, ParseRejectsTamperedTargetLayers) {
  const std::string payload = Index()->Serialize();
  // Flip the leading hex digit (exponent bits) of target_layers[0](0,0):
  // still valid hex, so the matrix list parses, but the value changes by
  // orders of magnitude. Row 0 is one of the fingerprint's probe rows, so
  // the rebuilt ANN index answers differently and verify-or-reject fires.
  const size_t target_pos = payload.find("target_layers");
  ASSERT_NE(target_pos, std::string::npos);
  const size_t header_end = payload.find('\n', target_pos);
  ASSERT_NE(header_end, std::string::npos);
  const size_t shape_end = payload.find('\n', header_end + 1);
  ASSERT_NE(shape_end, std::string::npos);
  std::string tampered = payload;
  const size_t p = shape_end + 1;  // first hex digit of the first value
  tampered[p] = tampered[p] == '4' ? '5' : '4';
  auto r = AlignmentIndex::Parse(tampered, "tampered");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(ServeTest, ParseRejectsTamperedFingerprint) {
  const std::string payload = Index()->Serialize();
  const size_t fp_pos = payload.find("fingerprint ");
  ASSERT_NE(fp_pos, std::string::npos);
  std::string tampered = payload;
  const size_t p = fp_pos + std::string("fingerprint ").size();
  tampered[p] = tampered[p] == 'a' ? 'b' : 'a';
  auto r = AlignmentIndex::Parse(tampered, "tampered");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("fingerprint"), std::string::npos)
      << r.status().message();
}

TEST_F(ServeTest, ParseRejectsTruncation) {
  const std::string payload = Index()->Serialize();
  for (double frac : {0.1, 0.5, 0.9, 0.99}) {
    auto r = AlignmentIndex::Parse(
        payload.substr(0, static_cast<size_t>(payload.size() * frac)),
        "truncated");
    ASSERT_FALSE(r.ok()) << "at fraction " << frac;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  }
}

// A loaded artifact must report, and re-save, the ANN config its index was
// built from, not the default one.
TEST_F(ServeTest, ParseKeepsNonDefaultAnnConfig) {
  Rng rng(12);
  auto g = BarabasiAlbert(50, 3, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(50, 8, 0.3, &rng)).MoveValueOrDie();
  auto pair = MakeNoisyCopyPair(g, NoisyCopyOptions(), &rng).MoveValueOrDie();
  GAlignConfig config;
  config.epochs = 2;
  config.embedding_dim = 8;
  AlignmentIndexOptions options;
  options.ann.seed = 7;
  options.ann.lsh_tables = 5;
  options.ann.lsh_bits = 4;
  options.ann.lsh_probes = 48;
  auto built = AlignmentIndex::Build(config, pair.source, pair.target, options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::string payload = built.ValueOrDie()->Serialize();
  auto back = AlignmentIndex::Parse(payload, "non-default ann config");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const AnnConfig& got = back.ValueOrDie()->ann_config();
  EXPECT_EQ(got.seed, 7u);
  EXPECT_EQ(got.lsh_tables, 5);
  EXPECT_EQ(got.lsh_bits, 4);
  EXPECT_EQ(got.lsh_probes, 48);
  EXPECT_EQ(back.ValueOrDie()->Serialize(), payload);
}

// A CRC-valid, shape-consistent artifact whose source or target layers have
// no rows: Parse must reject it with a typed IOError naming the section
// (swap validation would otherwise spot-check source row -1).
TEST_F(ServeTest, ParseRejectsZeroRowSections) {
  const AlignmentIndex& index = *Index();
  const std::string payload = index.Serialize();
  const size_t source = payload.find("source_layers ");
  const size_t target = payload.find("target_layers ");
  const size_t ann = payload.find("ann ", target);
  const size_t anchors = payload.find("anchors ", ann);
  ASSERT_TRUE(source != std::string::npos && target != std::string::npos &&
              ann != std::string::npos && anchors != std::string::npos);
  std::vector<Matrix> no_rows{Matrix(0, index.model().input_dim())};
  for (const Matrix& w : index.model().weights()) {
    no_rows.emplace_back(0, w.cols());
  }
  auto empty_layers = [&](const char* key) {
    std::string out;
    EmitMatrixList(&out, key, no_rows);
    return out;
  };
  auto empty_base = BuildAnnIndex(Matrix(0, index.ann().dim()),
                                  index.ann_config());
  ASSERT_TRUE(empty_base.ok());
  const std::string empty_recipe = SerializeAnnRecipe(*empty_base.ValueOrDie());

  for (const std::string section : {"source_layers", "target_layers"}) {
    const bool no_source = section == "source_layers";
    const int64_t rows = no_source ? 0 : index.num_source();
    const int64_t cols = no_source ? index.num_target() : 0;
    std::string hand = payload.substr(0, source);
    hand += no_source ? empty_layers("source_layers")
                      : payload.substr(source, target - source);
    hand += no_source ? payload.substr(target, anchors - target)
                      : empty_layers("target_layers") + "ann " +
                            std::to_string(empty_recipe.size()) + "\n" +
                            empty_recipe + "\n";
    hand += "anchors " + std::to_string(rows) + " " + std::to_string(cols) +
            " " + std::to_string(index.anchor_k()) + " " +
            std::to_string(rows) + "\n";
    // A target-less table holds only the -1 / -inf padding.
    const int64_t slots = rows * index.anchor_k();
    for (int64_t i = 0; i < slots; ++i) hand += "-1\n";
    for (int64_t i = 0; i < slots; ++i) {
      hand += HexDouble(-std::numeric_limits<double>::infinity()) + "\n";
    }
    hand += "end\n";
    auto r = AlignmentIndex::Parse(hand, "hand-built");
    ASSERT_FALSE(r.ok()) << section;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError) << section;
    EXPECT_NE(r.status().message().find(section), std::string::npos)
        << r.status().message();
  }
}

// An anchor slot without a target is written as -1; the parser takes it
// back as an empty slot.
TEST_F(ServeTest, ParseAcceptsEmptyAnchorSlots) {
  const std::string payload = Index()->Serialize();
  const size_t ids = payload.find('\n', payload.find("\nanchors ") + 1) + 1;
  const size_t first_end = payload.find(' ', ids);
  auto back = AlignmentIndex::Parse(
      payload.substr(0, ids) + "-1" + payload.substr(first_end), "empty slot");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.ValueOrDie()->anchors().index[0], -1);
  EXPECT_EQ(back.ValueOrDie()->anchors().index[1], Index()->anchors().index[1]);
}

// CRC-valid artifacts whose headers declare sizes within every cap but far
// beyond what the payload holds: each load must end in a typed IOError
// naming the section, not an allocation failure thrown out of Parse (on the
// watcher thread that would end the server).

// `payload` with the line `skip_lines` lines below the first occurrence of
// `section` replaced by `replacement`.
std::string RewriteLine(const std::string& payload, const std::string& section,
                        int skip_lines, const std::string& replacement) {
  size_t at = payload.find(section);
  for (int i = 0; i < skip_lines && at != std::string::npos; ++i) {
    at = payload.find('\n', at) + 1;
  }
  const size_t end = at == std::string::npos ? at : payload.find('\n', at);
  if (end == std::string::npos) return payload;
  return payload.substr(0, at) + replacement + payload.substr(end);
}

void ExpectHostileHeaderRejected(const std::string& payload,
                                 const std::string& names,
                                 const std::string& dir) {
  auto parsed = AlignmentIndex::Parse(payload, "hostile");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIOError);
  EXPECT_NE(parsed.status().message().find(names), std::string::npos)
      << parsed.status().message();

  AlignmentIndexStore store(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(
      AtomicWriteFile(store.GenerationPath(1), AppendCrc32Trailer(payload))
          .ok());
  auto loaded = store.LoadGeneration(1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  auto latest = store.LoadLatest();
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kIOError);
}

TEST_F(ServeTest, ParseRejectsLayerShapeLargerThanPayload) {
  // The first source matrix's shape line follows the section's key line.
  ExpectHostileHeaderRejected(
      RewriteLine(Index()->Serialize(), "source_layers ", 1, "65536 65536"),
      "'source_layers'", Dir("hostile"));
}

TEST_F(ServeTest, ParseRejectsAnchorsHeaderLargerThanPayload) {
  ExpectHostileHeaderRejected(
      RewriteLine(Index()->Serialize(), "anchors ", 0,
                  "anchors 4194304 200 1024 4194304"),
      "'anchors'", Dir("hostile"));
}

TEST_F(ServeTest, ParseRejectsModelDimsLargerThanPayload) {
  // Swap the embedded model's header line, keeping the raw-section byte
  // count in step so only the dims are hostile.
  const std::string payload = Index()->Serialize();
  const size_t key = payload.find("\nmodel ") + 1;
  const size_t body = payload.find('\n', key) + 1;
  const size_t header_end = payload.find('\n', body);
  const int64_t nbytes = std::stoll(payload.substr(key + 6, body - key - 7));
  const std::string header =
      "galign-gcn-v1 layers=2 input_dim=3000000000 "
      "embedding_dim=3000000000 activation=tanh";
  const int64_t resized = nbytes + static_cast<int64_t>(header.size()) -
                          static_cast<int64_t>(header_end - body);
  ExpectHostileHeaderRejected(payload.substr(0, key) + "model " +
                                  std::to_string(resized) + "\n" + header +
                                  payload.substr(header_end),
                              "model section", Dir("hostile"));
}

// --- Store ---------------------------------------------------------------

TEST_F(ServeTest, StoreRoundTripAndGenerations) {
  AlignmentIndexStore store(Dir("store"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  ASSERT_TRUE(store.Save(*Index()).ok());  // second generation
  EXPECT_TRUE(std::filesystem::exists(Dir("store") + "/aidx_00000002"));
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie()->Serialize(), Index()->Serialize());
}

TEST_F(ServeTest, StoreFallsBackPastTornNewestGeneration) {
  AlignmentIndexStore store(Dir("store"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  ASSERT_TRUE(store.Save(*Index()).ok());
  {
    std::ofstream torn(Dir("store") + "/aidx_00000002",
                       std::ios::trunc | std::ios::binary);
    torn << "torn write: not a valid artifact";
  }
  auto loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.ValueOrDie()->Serialize(), Index()->Serialize());
}

TEST_F(ServeTest, StoreDistinguishesEmptyFromAllTorn) {
  AlignmentIndexStore empty(Dir("nothing"));
  std::filesystem::create_directories(Dir("nothing"));
  auto none = empty.LoadLatest();
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);

  AlignmentIndexStore store(Dir("store"));
  ASSERT_TRUE(store.Save(*Index()).ok());
  ASSERT_TRUE(store.Save(*Index()).ok());
  for (const char* name : {"/aidx_00000001", "/aidx_00000002"}) {
    std::ofstream torn(Dir("store") + name,
                       std::ios::trunc | std::ios::binary);
    torn << "bit rot";
  }
  auto all_torn = store.LoadLatest();
  ASSERT_FALSE(all_torn.ok());
  EXPECT_EQ(all_torn.status().code(), StatusCode::kIOError);
  EXPECT_NE(all_torn.status().message().find("artifact generations"),
            std::string::npos);
  EXPECT_NE(all_torn.status().message().find("newest error"),
            std::string::npos);
}

TEST_F(ServeTest, CheckpointManagerDistinguishesEmptyFromAllTorn) {
  // The same typed contract, retrofitted onto the trainer's checkpoint
  // loader.
  CheckpointManager empty(Dir("ckpt_none"));
  std::filesystem::create_directories(Dir("ckpt_none"));
  auto none = empty.LoadLatest();
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), StatusCode::kNotFound);

  std::filesystem::create_directories(Dir("ckpt"));
  {
    std::ofstream torn(Dir("ckpt") + "/ckpt_00000003",
                       std::ios::trunc | std::ios::binary);
    torn << "garbage checkpoint bytes";
  }
  CheckpointManager mgr(Dir("ckpt"));
  auto r = mgr.LoadLatest();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("checkpoint generations"),
            std::string::npos);
}

TEST_F(ServeTest, StoreFaultSitesInjectTypedFailures) {
  AlignmentIndexStore store(Dir("store"));
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  fault::Arm("serve.artifact.save", spec);
  Status saved = store.Save(*Index());
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.code(), StatusCode::kIOError);
  fault::DisarmAll();

  ASSERT_TRUE(store.Save(*Index()).ok());
  spec.repeat = 1000;  // every generation read fails
  fault::Arm("serve.artifact.load", spec);
  auto loaded = store.LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  fault::DisarmAll();
  // And with the fault gone the same store loads fine — the failure was
  // injected, not persistent.
  EXPECT_TRUE(store.LoadLatest().ok());
}

// --- Server admission + shedding -----------------------------------------

TEST_F(ServeTest, AnswersMatchAnchorTableAtFullEffort) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  QueryRequest request;
  request.node = 7;
  request.k = Index()->anchor_k();
  QueryResponse response = server.SubmitAndWait(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.answer_source, "ann");
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(response.effort_step, 0);
  // An unloaded full-effort query reproduces the precomputed anchor row —
  // the degraded path serves stale-but-consistent data, not different data.
  const TopKAlignment& anchors = Index()->anchors();
  ASSERT_EQ(static_cast<int64_t>(response.targets.size()), anchors.k);
  for (int64_t j = 0; j < anchors.k; ++j) {
    EXPECT_EQ(response.targets[j], anchors.index[request.node * anchors.k + j]);
    EXPECT_EQ(response.scores[j], anchors.score[request.node * anchors.k + j]);
  }
}

TEST_F(ServeTest, RejectsMalformedRequestsTyped) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  QueryRequest bad_node;
  bad_node.node = Index()->num_source();  // one past the end
  QueryResponse r1 = server.SubmitAndWait(bad_node);
  EXPECT_EQ(r1.status.code(), StatusCode::kInvalidArgument);
  QueryRequest bad_k;
  bad_k.node = 0;
  bad_k.k = 0;
  QueryResponse r2 = server.SubmitAndWait(bad_k);
  EXPECT_EQ(r2.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Snapshot().invalid_argument, 2u);
}

TEST_F(ServeTest, ShedsTypedOverloadedWhenQueueIsFull) {
  ServeConfig config = SmallConfig();
  config.queue_capacity = 2;
  AlignServer server(Index(), config);
  // Not started: admitted requests stay queued, deterministically.
  std::vector<std::future<QueryResponse>> queued;
  QueryRequest request;
  request.node = 1;
  queued.push_back(server.Submit(request));
  queued.push_back(server.Submit(request));
  QueryResponse shed = server.SubmitAndWait(request);
  EXPECT_EQ(shed.status.code(), StatusCode::kOverloaded);
  EXPECT_GT(shed.retry_after_ms, 0.0);
  EXPECT_EQ(server.Snapshot().shed_queue_full, 1u);
  EXPECT_EQ(server.Snapshot().admitted, 2u);
  // The admitted requests still complete once workers run.
  server.Start();
  for (auto& future : queued) {
    QueryResponse response = future.get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
}

TEST_F(ServeTest, ShedsTypedOverloadedOnBudgetExhaustion) {
  ServeConfig config = SmallConfig();
  config.budget = std::make_shared<MemoryBudget>(uint64_t{1} << 20);
  config.per_request_bytes = uint64_t{4} << 20;  // never fits
  AlignServer server(Index(), config);
  server.Start();
  QueryRequest request;
  request.node = 0;
  QueryResponse response = server.SubmitAndWait(request);
  EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(server.Snapshot().shed_budget, 1u);
  // The failed admission released its (never-taken) reservation.
  EXPECT_EQ(config.budget->reserved(), 0u);
}

TEST_F(ServeTest, AdmissionFaultSiteShedsTyped) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  fault::Arm("serve.admit", spec);
  QueryRequest request;
  request.node = 0;
  QueryResponse response = server.SubmitAndWait(request);
  EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(server.Snapshot().shed_fault, 1u);
  fault::DisarmAll();
  EXPECT_TRUE(server.SubmitAndWait(request).status.ok());
}

TEST_F(ServeTest, RetryClientSurvivesTransientShed) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  spec.at_call = 0;
  spec.repeat = 1;  // only the first admission sheds
  fault::Arm("serve.admit", spec);
  QueryRequest request;
  request.node = 3;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 0.1;
  QueryResponse response = QueryWithRetry(&server, request, policy);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GE(fault::CallCount("serve.admit"), 2);
}

TEST_F(ServeTest, RetryBudgetExhaustsTypedUnderPersistentShed) {
  // Every admission sheds: the client must spend exactly its retry budget
  // (max_attempts submissions, not one more), honor the server's
  // retry-after hint as a floor on every backoff sleep, and hand back the
  // final typed kOverloaded — never a hang, never an untyped failure.
  ServeConfig config = SmallConfig();
  config.retry_after_ms = 5.0;
  AlignServer server(Index(), config);
  server.Start();
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  spec.repeat = 1000;  // persistent overload
  fault::Arm("serve.admit", spec);
  QueryRequest request;
  request.node = 3;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 0.1;  // schedule alone would barely sleep
  Timer timer;
  QueryResponse response = QueryWithRetry(&server, request, policy);
  const double elapsed_ms = timer.Seconds() * 1000.0;
  EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
  EXPECT_GT(response.retry_after_ms, 0.0);
  // Exactly the budget: three admissions, two sleeps between them.
  EXPECT_EQ(fault::CallCount("serve.admit"), 3);
  EXPECT_EQ(server.Snapshot().shed_fault, 3u);
  // Each sleep was floored by the 5 ms hint, so two sleeps bound the wall
  // time from below (slack for timer granularity).
  EXPECT_GE(elapsed_ms, 9.0);
}

// --- Degraded answers ----------------------------------------------------

TEST_F(ServeTest, ExpiredDeadlineFallsBackToAnchorTable) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  QueryRequest request;
  request.node = 9;
  request.k = 3;
  request.deadline_ms = 1e-6;  // expired by the time a worker sees it
  QueryResponse response = server.SubmitAndWait(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.degraded);
  EXPECT_EQ(response.answer_source, "anchor_table");
  const TopKAlignment& anchors = Index()->anchors();
  ASSERT_LE(static_cast<int64_t>(response.targets.size()), request.k);
  for (size_t j = 0; j < response.targets.size(); ++j) {
    EXPECT_EQ(response.targets[j],
              anchors.index[request.node * anchors.k + static_cast<int64_t>(j)]);
  }
  EXPECT_EQ(server.Snapshot().completed_anchor, 1u);
}

TEST_F(ServeTest, ExpiredDeadlineWithoutDegradedIsTyped) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  QueryRequest request;
  request.node = 9;
  request.deadline_ms = 1e-6;
  request.allow_degraded = false;
  QueryResponse response = server.SubmitAndWait(request);
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.Snapshot().deadline_exceeded, 1u);
}

TEST_F(ServeTest, MidQueryCancellationFallsBackToAnchorTable) {
  AlignServer server(Index(), SmallConfig());
  server.Start();
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  fault::Arm("serve.query.cancel", spec);
  QueryRequest request;
  request.node = 2;
  QueryResponse response = server.SubmitAndWait(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.answer_source, "anchor_table");
  EXPECT_TRUE(response.degraded);
  EXPECT_GE(fault::CallCount("serve.query.cancel"), 1);
}

TEST_F(ServeTest, QueuePressureStepsEffortDown) {
  ServeConfig config = SmallConfig();
  config.queue_capacity = 8;
  config.degrade_watermark = 0.25;
  config.max_effort_step = 3;
  AlignServer server(Index(), config);
  // Fill the queue before starting the worker so early pops observe a
  // deep queue.
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    QueryRequest request;
    request.node = i;
    futures.push_back(server.Submit(request));
  }
  server.Start();
  int degraded_effort = 0;
  for (auto& future : futures) {
    QueryResponse response = future.get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    if (response.effort_step > 0) {
      ++degraded_effort;
      EXPECT_TRUE(response.degraded);
      EXPECT_EQ(response.answer_source, "ann");
    }
  }
  EXPECT_GT(degraded_effort, 0);
  EXPECT_EQ(server.Snapshot().completed_reduced_effort,
            static_cast<uint64_t>(degraded_effort));
}

TEST_F(ServeTest, ShutdownResolvesQueuedRequestsTyped) {
  ServeConfig config = SmallConfig();
  AlignServer server(Index(), config);
  std::vector<std::future<QueryResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    QueryRequest request;
    request.node = i;
    futures.push_back(server.Submit(request));
  }
  // Never started: Shutdown must still resolve every promise.
  server.Shutdown();
  for (auto& future : futures) {
    QueryResponse response = future.get();
    EXPECT_EQ(response.status.code(), StatusCode::kOverloaded);
    EXPECT_NE(response.status.message().find("shutting down"),
              std::string::npos);
  }
  EXPECT_EQ(server.Snapshot().shed_shutdown, 4u);
  // Submit after shutdown sheds immediately instead of hanging.
  QueryRequest late;
  late.node = 0;
  EXPECT_EQ(server.SubmitAndWait(late).status.code(), StatusCode::kOverloaded);
}

TEST_F(ServeTest, QueryEffortParameterDegradesGracefully) {
  // The AnnIndex-level knob the server's pressure response rides on:
  // reduced effort still honors the TopKAlignment contract.
  const AlignmentIndex& index = *Index();
  for (double effort : {1.0, 0.5, 0.25, 0.05}) {
    auto got = index.ann().QueryBatch(index.queries(), 5, RunContext(), effort);
    ASSERT_TRUE(got.ok()) << "effort " << effort;
    const TopKAlignment& top = got.ValueOrDie();
    EXPECT_EQ(top.rows_computed, index.num_source());
    for (int64_t v = 0; v < top.rows; ++v) {
      for (int64_t j = 1; j < top.k; ++j) {
        if (top.index[v * top.k + j] < 0) break;
        EXPECT_LE(top.score[v * top.k + j], top.score[v * top.k + j - 1]);
      }
    }
  }
  // Full effort through the parameter equals the default-parameter path.
  auto a = index.ann().QueryBatch(index.queries(), 5);
  auto b = index.ann().QueryBatch(index.queries(), 5, RunContext(), 1.0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.ValueOrDie().index, b.ValueOrDie().index);
}

}  // namespace
}  // namespace galign
