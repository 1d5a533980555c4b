#include "core/model_io.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <unistd.h>

#include "core/trainer.h"
#include "graph/generators.h"

namespace galign {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("galign_model_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

double FromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// The matrix-list bytes of values whose bit patterns text formatting most
// easily gets wrong, pinned to what the ostringstream writer produced.
TEST_F(ModelIoTest, EmitMatrixListBytesArePinned) {
  Matrix m(3, 3);
  const double values[9] = {-0.0,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            FromBits(0x7ff8000000000001ull),  // NaN payloads
                            FromBits(0xfff00000deadbeefull),
                            FromBits(0x0000000000000001ull),  // denormals
                            FromBits(0x000fffffffffffffull),
                            DBL_MAX,
                            1.0};
  std::memcpy(m.data(), values, sizeof(values));
  std::string out;
  EmitMatrixList(&out, "special", {m, Matrix(0, 5)});
  EXPECT_EQ(out,
            "special 2\n3 3\n"
            "8000000000000000 7ff0000000000000 fff0000000000000 "
            "7ff8000000000001 fff00000deadbeef 0000000000000001 "
            "000fffffffffffff 7fefffffffffffff\n3ff0000000000000\n0 5\n");
  EXPECT_LE(out.size(), MatrixListBytes({m, Matrix(0, 5)}));
  // And they come back bit for bit.
  TextCursor in(out);
  std::vector<Matrix> back;
  ASSERT_TRUE(ParseMatrixList(&in, "special", &back, "pinned").ok());
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(std::memcmp(back[0].data(), values, sizeof(values)), 0);
  EXPECT_EQ(back[1].rows(), 0);
  EXPECT_EQ(back[1].cols(), 5);
}

// The istringstream matrix-list reader the cursor replaced, kept as the
// reference for what the format accepts (its error texts aside).
bool StreamParseMatrixList(const std::string& text, const char* key,
                           std::vector<Matrix>* out) {
  std::istringstream in(text);
  std::string tok;
  size_t count = 0;
  if (!(in >> tok) || tok != key || !(in >> count) || count > 4096) {
    return false;
  }
  out->clear();
  for (size_t k = 0; k < count; ++k) {
    int64_t rows = -1, cols = -1;
    if (!(in >> rows >> cols) || rows < 0 || cols < 0 ||
        rows > (int64_t{1} << 30) || cols > (int64_t{1} << 30) ||
        rows * cols > (int64_t{1} << 32)) {
      return false;
    }
    Matrix m(rows, cols);
    for (int64_t i = 0; i < m.size(); ++i) {
      if (!(in >> tok)) return false;
      auto v = ParseHexDouble(tok, "reference");
      if (!v.ok()) return false;
      m.data()[i] = v.ValueOrDie();
    }
    out->push_back(std::move(m));
  }
  return true;
}

bool SameMatrices(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double))) {
      return false;
    }
  }
  return true;
}

// operator>> skipped any run of whitespace between tokens and read integers
// with a sign and leading zeros; the cursor parser must accept and reject
// exactly what the stream reader did, to the same bits.
TEST_F(ModelIoTest, ParseMatrixListMatchesStreamReader) {
  Rng rng(3);
  const std::vector<Matrix> ms = {Matrix::Xavier(4, 5, &rng),
                                  Matrix::Xavier(2, 9, &rng)};
  std::string canonical;
  EmitMatrixList(&canonical, "weights", ms);
  const char* runs[] = {" ", "\t", "\n\n", " \r\n", "\v\f ", "\t \t"};
  std::string mixed = "\n\t";
  size_t r = 0;
  for (char c : canonical) {
    if (c == ' ' || c == '\n') {
      mixed += runs[r++ % 6];
    } else {
      mixed += c;
    }
  }
  const std::string one = "3ff0000000000000";
  const std::vector<std::string> texts = {
      canonical,
      mixed,
      "weights +1\n+002 01\n" + one + "\n" + one + "\n",
      "weights 1\n2 1\n" + one + "\n",             // truncated
      "weights 1\n2 1\n" + one + " 3FF0000000000000",  // uppercase digit
      "weights 1\n1 1\n" + one + "0\n",            // 17 digits
      "weights 1\n-1 1\n",
      "weights 1 1 1 " + one,
      "weights\t1\n1\v1\f" + one,
      "weight 1\n1 1\n" + one,
  };
  for (const std::string& text : texts) {
    std::vector<Matrix> want;
    const bool stream_ok = StreamParseMatrixList(text, "weights", &want);
    TextCursor in(text);
    std::vector<Matrix> got;
    const bool cursor_ok =
        ParseMatrixList(&in, "weights", &got, "reflowed").ok();
    EXPECT_EQ(cursor_ok, stream_ok) << text;
    if (stream_ok && cursor_ok) {
      EXPECT_TRUE(SameMatrices(got, want)) << text;
    }
  }
  std::vector<Matrix> back;
  TextCursor in(mixed);
  ASSERT_TRUE(ParseMatrixList(&in, "weights", &back, "reflowed").ok());
  EXPECT_TRUE(SameMatrices(back, ms));
  EXPECT_TRUE(in.Token().empty());
}

TEST_F(ModelIoTest, RoundTripPreservesEverything) {
  Rng rng(1);
  MultiOrderGcn gcn(3, 7, 12, &rng, Activation::kTanh);
  ASSERT_TRUE(SaveGcnModel(gcn, Path("m.txt")).ok());
  auto loaded = LoadGcnModel(Path("m.txt"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const MultiOrderGcn& g = loaded.ValueOrDie();
  EXPECT_EQ(g.num_layers(), 3);
  EXPECT_EQ(g.input_dim(), 7);
  EXPECT_EQ(g.embedding_dim(), 12);
  EXPECT_EQ(g.activation(), Activation::kTanh);
  for (int l = 0; l < 3; ++l) {
    EXPECT_LT(Matrix::MaxAbsDiff(g.weights()[l], gcn.weights()[l]), 1e-15);
  }
}

TEST_F(ModelIoTest, ActivationSurvivesRoundTrip) {
  Rng rng(2);
  MultiOrderGcn gcn(2, 4, 8, &rng, Activation::kRelu);
  ASSERT_TRUE(SaveGcnModel(gcn, Path("relu.txt")).ok());
  EXPECT_EQ(LoadGcnModel(Path("relu.txt")).ValueOrDie().activation(),
            Activation::kRelu);
}

TEST_F(ModelIoTest, TrainedModelGivesIdenticalEmbeddingsAfterReload) {
  Rng rng(3);
  auto g = BarabasiAlbert(30, 2, &rng).MoveValueOrDie();
  g = g.WithAttributes(BinaryAttributes(30, 5, 0.3, &rng)).MoveValueOrDie();
  GAlignConfig cfg;
  cfg.epochs = 10;
  cfg.embedding_dim = 8;
  MultiOrderGcn gcn(cfg.num_layers, 5, cfg.embedding_dim, &rng);
  Trainer trainer(cfg);
  trainer.Train(&gcn, g, g, &rng).CheckOK();
  ASSERT_TRUE(SaveGcnModel(gcn, Path("trained.txt")).ok());
  auto loaded = LoadGcnModel(Path("trained.txt")).MoveValueOrDie();

  auto lap = g.NormalizedAdjacency().MoveValueOrDie();
  auto h1 = gcn.ForwardInference(lap, g.attributes());
  auto h2 = loaded.ForwardInference(lap, g.attributes());
  for (size_t l = 0; l < h1.size(); ++l) {
    EXPECT_LT(Matrix::MaxAbsDiff(h1[l], h2[l]), 1e-12);
  }
}

TEST_F(ModelIoTest, RejectsCorruptFiles) {
  EXPECT_FALSE(LoadGcnModel(Path("missing.txt")).ok());
  std::ofstream(Path("garbage.txt")) << "not a model\n1 2 3\n";
  EXPECT_FALSE(LoadGcnModel(Path("garbage.txt")).ok());
  std::ofstream(Path("truncated.txt"))
      << "galign-gcn-v1 layers=2 input_dim=4 embedding_dim=8 "
         "activation=tanh\n4 8\n0.5\n";
  EXPECT_FALSE(LoadGcnModel(Path("truncated.txt")).ok());
}

TEST_F(ModelIoTest, RejectsBadHeaderValues) {
  std::ofstream(Path("bad.txt"))
      << "galign-gcn-v1 layers=0 input_dim=4 embedding_dim=8 "
         "activation=tanh\n";
  EXPECT_FALSE(LoadGcnModel(Path("bad.txt")).ok());
  std::ofstream(Path("badact.txt"))
      << "galign-gcn-v1 layers=1 input_dim=4 embedding_dim=8 "
         "activation=swish\n";
  EXPECT_FALSE(LoadGcnModel(Path("badact.txt")).ok());
}

}  // namespace
}  // namespace galign
