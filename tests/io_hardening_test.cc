// IO hardening (DESIGN.md §7): every loader must reject truncated, garbage,
// and shape-mismatched files with a descriptive Status — never crash, hang,
// or silently accept NaN payloads — and every loader's fault-injection site
// must produce a clean, recoverable IOError.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "align/alignment_io.h"
#include "align/dataset_io.h"
#include "common/durable_io.h"
#include "common/fault.h"
#include "common/parse.h"
#include "core/checkpoint.h"
#include "core/model_io.h"
#include "graph/ann/ann_io.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/noise.h"

namespace galign {
namespace {

class IoHardeningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("galign_io_hardening_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::DisarmAll();
    std::filesystem::remove_all(dir_);
  }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  void WriteFile(const std::string& name, const std::string& content) {
    std::ofstream out(Path(name));
    out << content;
  }
  std::filesystem::path dir_;
};

// Expects a failed load whose message mentions `needle` — corrupt-file
// errors must tell the operator what is wrong, not just that something is.
template <typename R>
void ExpectErrorMentioning(const R& result, const std::string& needle) {
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(needle), std::string::npos)
      << "error message was: " << result.status().message();
}

// --- Model files ----------------------------------------------------------

TEST_F(IoHardeningTest, ModelRejectsGarbageHeaderCount) {
  WriteFile("m.txt", "galign-gcn-v1 layers=abc input_dim=4 embedding_dim=8 "
                     "activation=tanh\n");
  ExpectErrorMentioning(LoadGcnModel(Path("m.txt")), "layers");
}

TEST_F(IoHardeningTest, ModelRejectsAbsurdLayerCount) {
  WriteFile("m.txt", "galign-gcn-v1 layers=99999999 input_dim=4 "
                     "embedding_dim=8 activation=tanh\n");
  ExpectErrorMentioning(LoadGcnModel(Path("m.txt")), "malformed model header");
}

TEST_F(IoHardeningTest, ModelRejectsTruncatedWeights) {
  Rng rng(1);
  MultiOrderGcn gcn(2, 3, 4, &rng);
  ASSERT_TRUE(SaveGcnModel(gcn, Path("m.txt")).ok());
  // Keep the header, the first layer's shape, and one of its weight rows.
  std::ifstream in(Path("m.txt"));
  std::string content, line;
  for (int kept = 0; kept < 3 && std::getline(in, line); ++kept) {
    content += line + "\n";
  }
  WriteFile("m.txt", content);
  ExpectErrorMentioning(LoadGcnModel(Path("m.txt")), "truncated");
}

TEST_F(IoHardeningTest, ModelRejectsNaNWeight) {
  WriteFile("m.txt",
            "galign-gcn-v1 layers=1 input_dim=2 embedding_dim=2 "
            "activation=tanh\n2 2\n0.5 nan\n0.25 0.125\n");
  ExpectErrorMentioning(LoadGcnModel(Path("m.txt")), "non-finite weight");
}

TEST_F(IoHardeningTest, ModelRejectsShapeMismatch) {
  WriteFile("m.txt",
            "galign-gcn-v1 layers=1 input_dim=2 embedding_dim=2 "
            "activation=tanh\n3 2\n1 2\n3 4\n5 6\n");
  ExpectErrorMentioning(LoadGcnModel(Path("m.txt")), "shape mismatch");
}

TEST_F(IoHardeningTest, ModelRejectsTrailingData) {
  Rng rng(2);
  MultiOrderGcn gcn(1, 2, 2, &rng);
  ASSERT_TRUE(SaveGcnModel(gcn, Path("m.txt")).ok());
  std::ofstream out(Path("m.txt"), std::ios::app);
  out << "9 9\n1 2 3\n";
  out.close();
  ExpectErrorMentioning(LoadGcnModel(Path("m.txt")), "trailing data");
}

TEST_F(IoHardeningTest, ModelLoadRetriesTransientFaultThenFailsPersistent) {
  Rng rng(3);
  MultiOrderGcn gcn(2, 3, 4, &rng);
  ASSERT_TRUE(SaveGcnModel(gcn, Path("m.txt")).ok());

  // A single-shot injection is transient: the loader's bounded retry
  // absorbs it and the caller never sees an error.
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  fault::Arm("io.model.load", spec);
  EXPECT_TRUE(LoadGcnModel(Path("m.txt")).ok());
  EXPECT_GE(fault::CallCount("io.model.load"), 2) << "loader did not retry";

  // A fault outlasting every retry attempt surfaces as a clean IOError.
  spec.repeat = 1000;
  fault::Arm("io.model.load", spec);
  auto failed = LoadGcnModel(Path("m.txt"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  ExpectErrorMentioning(failed, "injected fault");
}

TEST_F(IoHardeningTest, ModelLoadDetectsChecksumMismatch) {
  Rng rng(3);
  MultiOrderGcn gcn(1, 2, 2, &rng);
  ASSERT_TRUE(SaveGcnModel(gcn, Path("m.txt")).ok());

  // Flip one payload byte without touching the trailer: rename atomicity
  // can't catch post-write bit rot, the CRC must.
  std::ifstream in(Path("m.txt"));
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  in.close();
  auto digit = content.find_first_of("0123456789", content.find('\n'));
  ASSERT_NE(digit, std::string::npos);
  content[digit] = content[digit] == '9' ? '8' : '9';
  WriteFile("m.txt", content);
  ExpectErrorMentioning(LoadGcnModel(Path("m.txt")), "checksum mismatch");
}

// --- Edge lists and attributes --------------------------------------------

TEST_F(IoHardeningTest, EdgeListRejectsGarbageNodeCount) {
  WriteFile("g.edges", "# nodes=12abc\n0 1\n");
  ExpectErrorMentioning(LoadEdgeList(Path("g.edges")), "node count");
}

TEST_F(IoHardeningTest, EdgeListRejectsEndpointBeyondDeclaredCount) {
  WriteFile("g.edges", "# nodes=3\n0 1\n1 7\n");
  auto r = LoadEdgeList(Path("g.edges"));
  ExpectErrorMentioning(r, "exceeds declared node count");
  ExpectErrorMentioning(r, "7");
}

TEST_F(IoHardeningTest, EdgeListRejectsMalformedLineWithLineNumber) {
  WriteFile("g.edges", "# nodes=3\n0 1\n1 two\n");
  ExpectErrorMentioning(LoadEdgeList(Path("g.edges")), ":3");
}

TEST_F(IoHardeningTest, AttributesRejectNaN) {
  WriteFile("g.attrs", "1 0 1\n0 nan 1\n");
  ExpectErrorMentioning(LoadAttributes(Path("g.attrs")), "non-finite");
}

TEST_F(IoHardeningTest, AttributesRejectNonNumericToken) {
  WriteFile("g.attrs", "1 0 1\n0 hello 1\n");
  ExpectErrorMentioning(LoadAttributes(Path("g.attrs")), "hello");
}

TEST_F(IoHardeningTest, AttributesRejectRaggedRows) {
  WriteFile("g.attrs", "1 0 1\n0 1\n");
  auto r = LoadAttributes(Path("g.attrs"));
  ExpectErrorMentioning(r, "expected 3 columns, got 2");
}

// --- Alignment matrices ---------------------------------------------------

TEST_F(IoHardeningTest, AlignmentRoundTripsThenDetectsTruncation) {
  Matrix s(3, 4);
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t c = 0; c < 4; ++c) s(r, c) = 0.1 * static_cast<double>(r + c);
  }
  ASSERT_TRUE(SaveAlignmentMatrix(s, Path("a.txt")).ok());
  ASSERT_TRUE(LoadAlignmentMatrix(Path("a.txt")).ok());

  // Drop the last data row; the surviving header gives the truncation away.
  std::ifstream in(Path("a.txt"));
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  WriteFile("a.txt", content.substr(0, content.rfind('\n', content.size() - 2) + 1));
  auto r = LoadAlignmentMatrix(Path("a.txt"));
  ExpectErrorMentioning(r, "truncated or corrupt");
}

TEST_F(IoHardeningTest, AlignmentRejectsNonFiniteScore) {
  WriteFile("a.txt", "0.5 0.25\ninf 0.125\n");
  ExpectErrorMentioning(LoadAlignmentMatrix(Path("a.txt")),
                        "non-finite alignment score");
}

TEST_F(IoHardeningTest, AlignmentIgnoresUnrelatedComments) {
  WriteFile("a.txt", "# produced by sweep run=42\n0.5 0.25\n0.125 0.0625\n");
  auto r = LoadAlignmentMatrix(Path("a.txt"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().rows(), 2);
}

// --- Dataset directories --------------------------------------------------

TEST_F(IoHardeningTest, DatasetErrorNamesThePartAndFile) {
  Rng rng(4);
  auto g = BarabasiAlbert(15, 2, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(15, 4, 0.3, &rng)).MoveValueOrDie();
  NoisyCopyOptions opts;
  auto pair = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
  ASSERT_TRUE(SaveAlignmentPair(pair, dir_.string()).ok());
  ASSERT_TRUE(LoadAlignmentPair(dir_.string()).ok());

  // Corrupt one part: the error must name both the part and the file.
  WriteFile("target.attrs", "1 0\nnan 1\n");
  auto r = LoadAlignmentPair(dir_.string());
  ExpectErrorMentioning(r, "target attributes");
  ExpectErrorMentioning(r, "target.attrs");
}

TEST_F(IoHardeningTest, DatasetRejectsAttributeRowCountMismatch) {
  Rng rng(5);
  auto g = BarabasiAlbert(15, 2, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(15, 4, 0.3, &rng)).MoveValueOrDie();
  NoisyCopyOptions opts;
  auto pair = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
  ASSERT_TRUE(SaveAlignmentPair(pair, dir_.string()).ok());

  WriteFile("source.attrs", "1 0 1 0\n0 1 0 1\n");  // 2 rows for 15 nodes
  auto r = LoadAlignmentPair(dir_.string());
  ExpectErrorMentioning(r, "source attributes");
  ExpectErrorMentioning(r, "declares 15 nodes");
}

TEST_F(IoHardeningTest, DatasetRejectsGroundTruthBeyondTarget) {
  Rng rng(6);
  auto g = BarabasiAlbert(10, 2, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(10, 4, 0.3, &rng)).MoveValueOrDie();
  NoisyCopyOptions opts;
  auto pair = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
  ASSERT_TRUE(SaveAlignmentPair(pair, dir_.string()).ok());

  WriteFile("ground_truth.txt", "0 99\n");
  auto r = LoadAlignmentPair(dir_.string());
  ExpectErrorMentioning(r, "ground truth");
  ExpectErrorMentioning(r, "99");
}

TEST_F(IoHardeningTest, EdgeListFaultSiteContextualizedByDataset) {
  Rng rng(7);
  auto g = BarabasiAlbert(10, 2, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(10, 4, 0.3, &rng)).MoveValueOrDie();
  NoisyCopyOptions opts;
  auto pair = MakeNoisyCopyPair(g, opts, &rng).MoveValueOrDie();
  ASSERT_TRUE(SaveAlignmentPair(pair, dir_.string()).ok());

  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  spec.repeat = 1000;  // persistent: must outlast the loader's retries
  fault::Arm("io.edges.load", spec);  // fires on the source network read
  auto r = LoadAlignmentPair(dir_.string());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  ExpectErrorMentioning(r, "source network");
  ExpectErrorMentioning(r, "injected fault");

  // A transient (single-shot) fault, by contrast, is retried away.
  spec.repeat = 1;
  fault::Arm("io.edges.load", spec);
  EXPECT_TRUE(LoadAlignmentPair(dir_.string()).ok());

  fault::DisarmAll();
  EXPECT_TRUE(LoadAlignmentPair(dir_.string()).ok());
}

TEST_F(IoHardeningTest, AlignmentMatrixLoadFaultSiteRetriesThenFails) {
  auto m = Matrix::TryCreate(3, 2).MoveValueOrDie();
  for (int64_t r = 0; r < 3; ++r)
    for (int64_t c = 0; c < 2; ++c) m(r, c) = 0.25 * static_cast<double>(r + c);
  ASSERT_TRUE(SaveAlignmentMatrix(m, Path("s.tsv")).ok());

  // Transient: the loader's bounded retry absorbs a single-shot fault.
  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  fault::Arm("io.alignment.load", spec);
  EXPECT_TRUE(LoadAlignmentMatrix(Path("s.tsv")).ok());
  EXPECT_GE(fault::CallCount("io.alignment.load"), 2)
      << "loader did not retry";

  // Persistent: outlasts every retry, surfaces as a clean typed IOError.
  spec.repeat = 1000;
  fault::Arm("io.alignment.load", spec);
  auto failed = LoadAlignmentMatrix(Path("s.tsv"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  ExpectErrorMentioning(failed, "injected fault");
}

TEST_F(IoHardeningTest, AttributesLoadFaultSiteRetriesThenFails) {
  auto attrs = Matrix::TryCreate(4, 3).MoveValueOrDie();
  for (int64_t r = 0; r < 4; ++r)
    for (int64_t c = 0; c < 3; ++c) attrs(r, c) = (r + c) % 2 ? 1.0 : 0.0;
  ASSERT_TRUE(SaveAttributes(attrs, Path("a.tsv")).ok());

  fault::Spec spec;
  spec.kind = fault::Kind::kFailIO;
  fault::Arm("io.attrs.load", spec);
  EXPECT_TRUE(LoadAttributes(Path("a.tsv")).ok());
  EXPECT_GE(fault::CallCount("io.attrs.load"), 2) << "loader did not retry";

  spec.repeat = 1000;
  fault::Arm("io.attrs.load", spec);
  auto failed = LoadAttributes(Path("a.tsv"));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  ExpectErrorMentioning(failed, "injected fault");
}

// --- Error messages quote payload tokens -----------------------------------

// A token runs to the next whitespace, so a CRC-valid payload can hand a
// parser one token of any length and any bytes. Every message that quotes a
// token stays short and printable: it reaches the log, the swap quarantine
// record and `galign_serve --mode=health`.
TEST_F(IoHardeningTest, ErrorMessagesQuoteHostileTokensShortAndPrintable) {
  std::string tok(size_t{1} << 20, '7');
  tok[5] = static_cast<char>(0xb3);
  const std::string model_tail = " input_dim=1 embedding_dim=1\n1 1\n";
  std::string checkpoint = SerializeCheckpoint(TrainerCheckpoint{});
  const std::string lr = "\nlr " + HexDouble(0.0);
  ASSERT_NE(checkpoint.find(lr), std::string::npos);
  checkpoint.replace(checkpoint.find(lr), lr.size(), "\nlr " + tok);
  const std::string recipe_v2 =
      "galign-ann-recipe-v2\nseed 1\nlsh_tables 4\nlsh_bits 8\n"
      "lsh_probes 1\nrows 4\ndim 2\nfingerprint " + tok + "\nend\n";

  WriteFile("edges_bad.txt", "0 1\n" + tok + "\n");
  WriteFile("edges_neg.txt", "-1 " + tok + "\n");
  WriteFile("line_bad.txt", tok + "\n");

  const std::pair<const char*, Status> cases[] = {
      {"ParseHexDouble", ParseHexDouble(tok, "test").status()},
      {"ParseInt64", ParseInt64(tok, "value").status()},
      {"ParseDouble", ParseDouble(tok, "value").status()},
      {"checkpoint lr", ParseCheckpoint(checkpoint, "test").status()},
      {"model weight",
       ParseGcnModel("galign-gcn-v1 layers=1" + model_tail + tok + "\n",
                     "test").status()},
      {"model magic",
       ParseGcnModel(tok + " layers=1" + model_tail + "0.5\n", "test")
           .status()},
      {"model header",
       ParseGcnModel("galign-gcn-v1 layers=0 " + tok + model_tail + "0.5\n",
                     "test").status()},
      {"model header count",
       ParseGcnModel("galign-gcn-v1 layers=" + tok + model_tail + "0.5\n",
                     "test").status()},
      {"model activation",
       ParseGcnModel("galign-gcn-v1 layers=1 activation=" + tok + model_tail +
                         "0.5\n",
                     "test").status()},
      {"model trailing data",
       ParseGcnModel("galign-gcn-v1 layers=1" + model_tail + "0.5\n" + tok,
                     "test").status()},
      {"ANN backend",
       RebuildAnnIndex("galign-ann-recipe-v1\nbackend " + tok + "\n",
                       Matrix(4, 2), RunContext(), "test").status()},
      {"ANN fingerprint",
       RebuildAnnIndex(recipe_v2, Matrix(4, 2), RunContext(), "test")
           .status()},
      // The loaders of user files name the offending line.
      {"malformed edge line", LoadEdgeList(Path("edges_bad.txt")).status()},
      {"negative node id", LoadEdgeList(Path("edges_neg.txt")).status()},
      {"malformed ground-truth line",
       LoadGroundTruth(Path("line_bad.txt"), 4).status()},
      {"malformed anchor line",
       LoadAnchors(Path("line_bad.txt"), 4).status()},
  };
  // A non-finite value parses only as inf or nan(<letters, digits, _>), so
  // no such token holds byte 0xb3; these messages get 1 MiB of digits.
  const std::string nan_tok = "nan(" + tok.substr(0, 5) + tok.substr(6) + ")";
  WriteFile("attrs_nan.txt", "0.5 " + nan_tok + "\n");
  WriteFile("matrix_nan.txt", "0.5 " + nan_tok + "\n");
  const std::pair<const char*, Status> non_finite[] = {
      {"non-finite attribute value",
       LoadAttributes(Path("attrs_nan.txt")).status()},
      {"non-finite alignment score",
       LoadAlignmentMatrix(Path("matrix_nan.txt")).status()},
  };
  for (const auto& [name, st] : non_finite) {
    ASSERT_EQ(st.code(), StatusCode::kIOError) << name;
    const std::string& msg = st.message();
    EXPECT_NE(msg.find(name), std::string::npos) << msg;
    EXPECT_LT(msg.size(), 256u) << name;
    EXPECT_NE(msg.find("'nan(7777"), std::string::npos) << name;
    EXPECT_NE(msg.find(" bytes)"), std::string::npos) << name;
  }
  for (const auto& [name, st] : cases) {
    ASSERT_EQ(st.code(), StatusCode::kIOError) << name;
    const std::string& msg = st.message();
    EXPECT_LT(msg.size(), 256u) << name;
    EXPECT_NE(msg.find("\\xb3"), std::string::npos) << name;
    EXPECT_NE(msg.find(" bytes)"), std::string::npos) << name;
    for (const char c : msg) {
      ASSERT_TRUE(c >= 0x20 && c < 0x7f)
          << name << ": byte " << static_cast<int>(c);
    }
  }
  // The swap watcher classifies a recipe failure by this word.
  EXPECT_NE(cases[11].second.message().find("fingerprint"), std::string::npos);
}

}  // namespace
}  // namespace galign
