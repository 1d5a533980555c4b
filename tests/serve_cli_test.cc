// End-to-end test of the galign_serve binary (DESIGN.md §12): export a
// synthetic artifact, answer stdin queries through serve mode, hold the
// typed-response contract under a 16x burst, and reject each malformed
// flag with a typed file:line diagnostic. The binary path is injected by
// CMake as GALIGN_SERVE_PATH.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#ifndef GALIGN_SERVE_PATH
#define GALIGN_SERVE_PATH "galign_serve"
#endif

namespace galign {
namespace {

class ServeCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("galign_serve_cli_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Dir(const std::string& name) { return (dir_ / name).string(); }

  /// Runs the binary with `extra` flags; stdout+stderr land in out.txt.
  /// Returns the process exit code (-1 if it died on a signal).
  int Run(const std::string& extra, const std::string& stdin_file = "") {
    std::string cmd = std::string(GALIGN_SERVE_PATH) + " " + extra;
    if (!stdin_file.empty()) cmd += " < " + stdin_file;
    cmd += " > " + Dir("out.txt") + " 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  std::string CapturedOutput() {
    std::ifstream in(Dir("out.txt"));
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  /// Publishes a small artifact once per test that needs one.
  void ExportArtifact() {
    ASSERT_EQ(Run("--mode=export --artifact-dir=" + Dir("aidx") +
                  " --generate=50 --epochs=4 --dim=16 --anchor-k=5"),
              0)
        << CapturedOutput();
    ASSERT_TRUE(std::filesystem::exists(Dir("aidx") + "/MANIFEST"));
    ASSERT_TRUE(std::filesystem::exists(Dir("aidx") + "/aidx_00000001"));
  }

  std::filesystem::path dir_;
};

TEST_F(ServeCliTest, ExportThenServeAnswersQueries) {
  ExportArtifact();
  {
    std::ofstream script(Dir("script.txt"));
    script << "query 3\n"          // full answer
           << "query 3 2\n"        // explicit k
           << "query 9999\n"       // typed rejection, server keeps going
           << "bogus command\n"    // parse error, server keeps going
           << "quit\n";
  }
  ASSERT_EQ(Run("--mode=serve --artifact-dir=" + Dir("aidx") +
                    " --topk=5 --retry",
                Dir("script.txt")),
            0)
      << CapturedOutput();
  const std::string out = CapturedOutput();
  EXPECT_NE(out.find("serving 50 source nodes"), std::string::npos) << out;
  EXPECT_NE(out.find("node 3 [ann"), std::string::npos) << out;
  EXPECT_NE(out.find("InvalidArgument"), std::string::npos) << out;
  EXPECT_NE(out.find("unknown command 'bogus'"), std::string::npos) << out;
}

TEST_F(ServeCliTest, BurstAt16xCapacityHoldsTypedContract) {
  ExportArtifact();
  // 16x a tiny queue from 4 clients with one worker: most requests must
  // shed, every one must resolve typed, and the binary's own contract
  // check is the exit code.
  ASSERT_EQ(Run("--mode=burst --artifact-dir=" + Dir("aidx") +
                " --workers=1 --queue-capacity=8 --load-multiple=16"
                " --clients=4 --deadline-ms=2000 --mem-budget=256m"),
            0)
      << CapturedOutput();
  const std::string out = CapturedOutput();
  EXPECT_NE(out.find("burst: 128 requests"), std::string::npos) << out;
  EXPECT_NE(out.find("untyped 0"), std::string::npos) << out;
  EXPECT_EQ(out.find("contract violated"), std::string::npos) << out;
}

TEST_F(ServeCliTest, ServeFallsBackPastTornNewestGeneration) {
  ExportArtifact();
  ASSERT_EQ(Run("--mode=export --artifact-dir=" + Dir("aidx") +
                " --generate=50 --epochs=4 --dim=16 --anchor-k=5"),
            0);
  {
    std::ofstream torn(Dir("aidx") + "/aidx_00000002",
                       std::ios::trunc | std::ios::binary);
    torn << "crashed mid-write";
  }
  std::ofstream(Dir("quit.txt")) << "quit\n";
  EXPECT_EQ(Run("--mode=serve --artifact-dir=" + Dir("aidx"),
                Dir("quit.txt")),
            0)
      << CapturedOutput();
}

TEST_F(ServeCliTest, ExportOfEmptyNetworkFailsAndPublishesNothing) {
  const std::string empty = Dir("empty.edges"), path = Dir("path.edges");
  std::ofstream(empty) << "# nodes=0\n";
  std::ofstream(path) << "# nodes=4\n0\t1\n1\t2\n2\t3\n";
  for (const std::string& sides :
       {"--source=" + empty + " --target=" + path,
        "--source=" + path + " --target=" + empty}) {
    EXPECT_NE(Run("--mode=export --artifact-dir=" + Dir("aidx") + " " +
                  sides + " --epochs=2 --dim=8"),
              0)
        << sides;
    EXPECT_NE(CapturedOutput().find("empty network"), std::string::npos)
        << CapturedOutput();
    EXPECT_FALSE(std::filesystem::exists(Dir("aidx") + "/aidx_00000001"))
        << sides;
    EXPECT_FALSE(std::filesystem::exists(Dir("aidx") + "/MANIFEST")) << sides;
  }
}

TEST_F(ServeCliTest, ServeOnEmptyDirFailsTyped) {
  std::filesystem::create_directories(Dir("empty"));
  EXPECT_NE(Run("--mode=serve --artifact-dir=" + Dir("empty")), 0);
  EXPECT_NE(CapturedOutput().find("NotFound"), std::string::npos)
      << CapturedOutput();
}

// One rejection test per validated flag: exit code 2 and a typed
// diagnostic naming the flag, the value, and the validation site.

struct BadFlagCase {
  const char* flag_value;  ///< e.g. "--topk=0"
  const char* expect;      ///< substring the diagnostic must carry
};

void PrintTo(const BadFlagCase& c, std::ostream* os) { *os << c.flag_value; }

class ServeCliBadFlagTest : public ServeCliTest,
                            public ::testing::WithParamInterface<BadFlagCase> {
};

TEST_P(ServeCliBadFlagTest, RejectedTypedWithFileLine) {
  const BadFlagCase& c = GetParam();
  EXPECT_EQ(Run(std::string("--mode=serve --artifact-dir=") + Dir("aidx") +
                " " + c.flag_value),
            2);
  const std::string out = CapturedOutput();
  EXPECT_NE(out.find(c.expect), std::string::npos) << out;
  EXPECT_NE(out.find("galign_serve.cpp:"), std::string::npos) << out;
  EXPECT_NE(out.find("rejected:"), std::string::npos) << out;
}

INSTANTIATE_TEST_SUITE_P(
    AllFlags, ServeCliBadFlagTest,
    ::testing::Values(
        BadFlagCase{"--generate=0", "--generate=0"},
        BadFlagCase{"--epochs=-3", "--epochs=-3"},
        BadFlagCase{"--dim=zero", "--dim=zero"},
        BadFlagCase{"--anchor-k=0", "--anchor-k=0"},
        BadFlagCase{"--ann-recall-target=1.5", "0 < value <= 1"},
        BadFlagCase{"--ann-recall-target=0", "0 < value <= 1"},
        BadFlagCase{"--topk=0", "--topk=0"},
        BadFlagCase{"--mem-budget=1mb", "bad suffix"},
        BadFlagCase{"--mem-budget=q", "must start with a digit"},
        BadFlagCase{"--workers=0", "--workers=0"},
        BadFlagCase{"--queue-capacity=-1", "--queue-capacity=-1"},
        BadFlagCase{"--deadline-ms=0", "--deadline-ms=0"},
        BadFlagCase{"--clients=0", "--clients=0"},
        BadFlagCase{"--load-multiple=0", "--load-multiple=0"}));

TEST_F(ServeCliTest, TopKBeyondArtifactTargetRejectedTyped) {
  ExportArtifact();
  std::ofstream(Dir("quit.txt")) << "quit\n";
  EXPECT_EQ(Run("--mode=serve --artifact-dir=" + Dir("aidx") + " --topk=500",
                Dir("quit.txt")),
            2);
  const std::string out = CapturedOutput();
  EXPECT_NE(out.find("--topk=500 rejected"), std::string::npos) << out;
  EXPECT_NE(out.find("50 target nodes"), std::string::npos) << out;
}

TEST_F(ServeCliTest, UnknownFlagRejected) {
  EXPECT_NE(Run("--mode=serve --artifact-dir=" + Dir("aidx") +
                " --definitely-not-a-flag=1"),
            0);
  EXPECT_NE(CapturedOutput().find("unknown flag"), std::string::npos);
}

}  // namespace
}  // namespace galign
