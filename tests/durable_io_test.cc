// Durable IO primitives (DESIGN.md §8): atomic replace semantics, CRC32
// trailer validation, and bounded transient-fault retry.
#include "common/durable_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace galign {
namespace {

class DurableIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("galign_durable_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(DurableIoTest, Crc32MatchesCheckValue) {
  // The standard CRC-32 (IEEE, reflected) check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

// The byte-at-a-time definition the slicing-by-8 Crc32 must reproduce.
uint32_t ReferenceCrc32(const unsigned char* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST_F(DurableIoTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  std::mt19937_64 gen(42);
  std::vector<unsigned char> buf(64 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(gen());
  // Every alignment of the 8-byte words against the buffer and every tail
  // length the word loop leaves behind.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + offset;
      EXPECT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
  std::vector<unsigned char> big(size_t{1} << 20);
  for (unsigned char& b : big) b = static_cast<unsigned char>(gen());
  const uint32_t want = ReferenceCrc32(big.data(), big.size());
  EXPECT_EQ(Crc32(big.data(), big.size()), want);
  // The incremental form over uneven chunks gives the same value.
  uint32_t crc = 0;
  for (size_t at = 0, step = 1; at < big.size(); step = step * 3 + 1) {
    const size_t n = std::min(step, big.size() - at);
    crc = Crc32Update(crc, big.data() + at, n);
    at += n;
  }
  EXPECT_EQ(crc, want);
}

TEST_F(DurableIoTest, ReadFileToStringReadsEmptyAndLargeFiles) {
  ASSERT_TRUE(AtomicWriteFile(Path("empty"), "").ok());
  auto empty = ReadFileToString(Path("empty"));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.ValueOrDie(), "");
  std::string big(3 * 4096 + 17, 'x');
  for (size_t i = 0; i < big.size(); i += 97) big[i] = '\n';
  ASSERT_TRUE(AtomicWriteFile(Path("big"), big).ok());
  auto back = ReadFileToString(Path("big"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.ValueOrDie(), big);
}

// Retention's streamed check must reach StripAndVerifyCrc32Trailer's
// verdict, and message, on every shape of file a generation dir can hold.
TEST_F(DurableIoTest, StreamedTrailerCheckMatchesInMemoryVerdict) {
  const std::string good = AppendCrc32Trailer("alpha\nbeta gamma\ndelta\n");
  std::string flipped = good;
  flipped[7] ^= 0x04;
  std::string long_line(3 * 4096 + 5, 'y');
  const std::string many_chunks =
      AppendCrc32Trailer(std::string(size_t{600} << 10, 'z'));
  std::string many_chunks_flipped = many_chunks;
  many_chunks_flipped[size_t{300} << 10] ^= 0x01;
  const std::vector<std::pair<std::string, std::string>> files = {
      {"valid", good},
      {"flipped byte", flipped},
      {"truncated", good.substr(0, good.size() / 2)},
      {"truncated payload", good.substr(0, 4) + good.substr(9)},
      {"extra trailing newlines", good + "\n\n\n"},
      {"missing trailer", "alpha\nbeta\n"},
      {"malformed trailer", "alpha\n#crc32 zz\n"},
      {"trailer with junk", "alpha\n#crc32 12ab!\n"},
      {"empty", ""},
      {"only newlines", "\n\n\n"},
      {"one line", "#crc32 00000000"},
      {"long last line", AppendCrc32Trailer(long_line) + long_line},
      {"long valid payload", AppendCrc32Trailer(long_line)},
      {"many chunks", many_chunks},
      {"flip past the first chunk", many_chunks_flipped},
      // Both widen the tail window past its first read.
      {"newline run longer than the window", good + std::string(9000, '\n')},
      {"trailer longer than the window",
       "alpha\n#crc32 " + std::string(9000, '0') + "1\n"},
  };
  for (const auto& [name, bytes] : files) {
    const std::string path = Path("gen");
    ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
    const Status streamed = VerifyCrc32TrailerFile(path);
    auto whole = StripAndVerifyCrc32Trailer(bytes, /*require_trailer=*/true,
                                            path);
    EXPECT_EQ(streamed.ok(), whole.ok()) << name;
    EXPECT_EQ(streamed.ToString(), whole.status().ToString()) << name;
  }
  EXPECT_FALSE(VerifyCrc32TrailerFile(Path("no such file")).ok());
}

// The cursor is the token grammar the parsers used through istringstream:
// the same tokens and integers come out of any run of the six whitespace
// characters operator>> skips.
TEST_F(DurableIoTest, TextCursorTokenizesLikeIstream) {
  const std::string text =
      " \t\n alpha\v\f12\r\n-7 +8\t\t\r\n\n3fe0000000000000 \n\r end\t";
  std::istringstream ref(text);
  TextCursor cur(text);
  std::string word;
  ASSERT_TRUE(ref >> word);
  EXPECT_EQ(cur.Token(), word);
  for (int i = 0; i < 3; ++i) {
    int64_t want = 0, got = 0;
    ASSERT_TRUE(ref >> want);
    ASSERT_TRUE(cur.Int64(&got));
    EXPECT_EQ(got, want);
  }
  ASSERT_TRUE(ref >> word);
  ASSERT_EQ(word, "3fe0000000000000");
  double d = 0.0;
  ASSERT_TRUE(cur.HexDoubles(&d, 1, "value", "test").ok());
  EXPECT_EQ(d, 0.5);
  ASSERT_TRUE(ref >> word);
  EXPECT_TRUE(cur.Expect(word));
  EXPECT_FALSE(ref >> word);
  EXPECT_TRUE(cur.Token().empty());
}

TEST_F(DurableIoTest, TextCursorRejectsMalformedNumbers) {
  int64_t v = 0;
  TextCursor overflow("9223372036854775808");
  EXPECT_FALSE(overflow.Int64(&v));
  TextCursor lowest("-9223372036854775808");
  ASSERT_TRUE(lowest.Int64(&v));
  EXPECT_EQ(v, INT64_MIN);
  TextCursor no_digits(" -x");
  EXPECT_FALSE(no_digits.Int64(&v));
  // Like operator>>, an integer stops at the first non-digit.
  TextCursor glued("12ab");
  ASSERT_TRUE(glued.Int64(&v));
  EXPECT_EQ(v, 12);
  EXPECT_EQ(glued.Token(), "ab");
  int narrow = 0;
  TextCursor wide("2147483648");
  EXPECT_FALSE(wide.Int(&narrow));
  double d[2] = {0.0, 0.0};
  for (const char* tok : {"3FE0000000000000", "3fe000000000000",
                          "3fe00000000000000", "3fe000000000000g",
                          "3fe0000000000000x"}) {
    const std::string text = std::string("3ff0000000000000\n") + tok;
    TextCursor cur(text);
    const Status st = cur.HexDoubles(d, 2, "pair", "test");
    EXPECT_EQ(st.message(), "bad double bit pattern '" + std::string(tok) +
                                "' in test");
    EXPECT_EQ(d[0], 1.0);
  }
  TextCursor short_text("3ff0000000000000 ");
  EXPECT_EQ(short_text.HexDoubles(d, 2, "pair", "test").message(),
            "truncated pair in test");
  TextCursor raw("ab");
  std::string_view bytes;
  EXPECT_FALSE(raw.Bytes(3, &bytes));
  ASSERT_TRUE(raw.Bytes(2, &bytes));
  EXPECT_EQ(bytes, "ab");
  EXPECT_TRUE(raw.Fits(0, 16));
  EXPECT_FALSE(raw.Fits(1, 1));
}

TEST_F(DurableIoTest, AtomicWriteCreatesThenReplaces) {
  const std::string path = Path("f.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "first\n").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "first\n");
  ASSERT_TRUE(AtomicWriteFile(path, "second\n").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "second\n");

  // No temp droppings: the directory holds exactly the target file.
  int entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir_)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1);
}

// Threads of one process replacing one file (a save's retention pass and
// the swap watcher's both rewrite MANIFEST) each rename a whole file of
// their own: every write succeeds and no temp file is left behind.
TEST_F(DurableIoTest, AtomicWriteFromConcurrentThreadsAllSucceed) {
  const std::string path = Path("MANIFEST");
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        if (!AtomicWriteFile(path, "writer " + std::to_string(t) + "\n").ok()) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ReadFileToString(path).ValueOrDie().rfind("writer ", 0), 0u);
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir_),
                          std::filesystem::directory_iterator()),
            1);
}

TEST_F(DurableIoTest, AtomicWriteFailsCleanlyIntoMissingDirectory) {
  Status st = AtomicWriteFile(Path("no/such/dir/f.txt"), "x");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST_F(DurableIoTest, ReadMissingFileIsIOError) {
  auto r = ReadFileToString(Path("missing.txt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(DurableIoTest, TrailerRoundTrips) {
  const std::string payload = "line one\nline two\n";
  const std::string stamped = AppendCrc32Trailer(payload);
  auto stripped = StripAndVerifyCrc32Trailer(stamped,
                                             /*require_trailer=*/true, "test");
  ASSERT_TRUE(stripped.ok()) << stripped.status().ToString();
  EXPECT_EQ(stripped.ValueOrDie(), payload);
}

TEST_F(DurableIoTest, TrailerCoversAddedFinalNewline) {
  // A payload without a trailing newline gets one, and the CRC covers it.
  const std::string stamped = AppendCrc32Trailer("no newline");
  auto stripped = StripAndVerifyCrc32Trailer(stamped,
                                             /*require_trailer=*/true, "test");
  ASSERT_TRUE(stripped.ok());
  EXPECT_EQ(stripped.ValueOrDie(), "no newline\n");
}

TEST_F(DurableIoTest, TrailerDetectsCorruption) {
  std::string stamped = AppendCrc32Trailer("precious payload\n");
  stamped[3] ^= 0x01;  // single bit flip in the payload
  auto r = StripAndVerifyCrc32Trailer(stamped, /*require_trailer=*/false,
                                      "test");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("checksum mismatch"), std::string::npos);
}

TEST_F(DurableIoTest, TrailerDetectsTruncation) {
  // Truncating the payload while keeping the trailer must fail the CRC.
  const std::string stamped = AppendCrc32Trailer("aaaa\nbbbb\ncccc\n");
  const std::string truncated = stamped.substr(0, 5) + stamped.substr(10);
  auto r = StripAndVerifyCrc32Trailer(truncated, /*require_trailer=*/true,
                                      "test");
  ASSERT_FALSE(r.ok());
}

TEST_F(DurableIoTest, MissingTrailerPolicies) {
  const std::string legacy = "old format content\n";
  // Optional: legacy files pass through untouched.
  auto pass = StripAndVerifyCrc32Trailer(legacy, /*require_trailer=*/false,
                                         "test");
  ASSERT_TRUE(pass.ok());
  EXPECT_EQ(pass.ValueOrDie(), legacy);
  // Required (checkpoints, manifests, bench cells): missing is an error.
  auto fail = StripAndVerifyCrc32Trailer(legacy, /*require_trailer=*/true,
                                         "test");
  ASSERT_FALSE(fail.ok());
  EXPECT_NE(fail.status().message().find("missing"), std::string::npos);
}

// --- GenerationStore --------------------------------------------------------

GenerationStore TestStore(const std::string& dir) {
  return GenerationStore(dir, "gen_", "test-manifest-v1", "test", /*keep=*/3);
}

// Loads `gen`'s payload into `payload` (a loader for LoadLatest).
Status ReadInto(const GenerationStore& store, int gen, std::string* payload) {
  auto read = store.ReadPayload(gen);
  GALIGN_RETURN_NOT_OK(read.status());
  *payload = read.MoveValueOrDie();
  return Status::OK();
}

TEST_F(DurableIoTest, StoreCandidatesAreNewestFirst) {
  GenerationStore store = TestStore(dir_.string());
  EXPECT_TRUE(store.Candidates().empty());
  EXPECT_EQ(store.Newest(), 0);
  for (int gen = 1; gen <= 3; ++gen) {
    ASSERT_TRUE(store.Write(gen, "payload " + std::to_string(gen)).ok());
  }
  EXPECT_EQ(store.Path(3), Path("gen_00000003"));
  EXPECT_EQ(store.Candidates(), (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(store.Newest(), 3);
  // The manifest's own order wins while it is intact ...
  ASSERT_TRUE(AtomicWriteFile(Path("MANIFEST"),
                              AppendCrc32Trailer("test-manifest-v1\n"
                                                 "gen_00000002\n"
                                                 "gen_00000003\n"))
                  .ok());
  EXPECT_EQ(store.Candidates(), (std::vector<int>{2, 3}));
  // ... and a directory scan stands in without it.
  std::filesystem::remove(Path("MANIFEST"));
  EXPECT_EQ(store.Candidates(), (std::vector<int>{3, 2, 1}));
}

// A torn MANIFEST, one with another store's magic and one that names no
// generation are each ignored: the directory scan finds the generations,
// and the newest one that loads is returned and pinned.
TEST_F(DurableIoTest, StoreFallsBackPastBadManifestToDirectoryScan) {
  GenerationStore store = TestStore(dir_.string());
  ASSERT_TRUE(store.Write(1, "one").ok());
  ASSERT_TRUE(store.Write(2, "two").ok());
  // Generation 3 is torn, so the scan's first candidate fails to load.
  ASSERT_TRUE(AtomicWriteFile(Path("gen_00000003"), "torn").ok());
  const std::string torn_manifest =
      AppendCrc32Trailer("test-manifest-v1\ngen_00000001\n");
  const std::pair<const char*, std::string> manifests[] = {
      {"torn", torn_manifest.substr(0, torn_manifest.size() - 4)},
      {"foreign magic",
       AppendCrc32Trailer("other-manifest-v1\ngen_00000001\n")},
      {"no generation",
       AppendCrc32Trailer("test-manifest-v1\ngen_00000000\ngen_1\n"
                          "gen_000000001\nother_00000001\n")},
  };
  for (const auto& [name, bytes] : manifests) {
    ASSERT_TRUE(AtomicWriteFile(Path("MANIFEST"), bytes).ok());
    EXPECT_EQ(store.Candidates(), (std::vector<int>{3, 2, 1})) << name;
    std::string payload;
    int loaded = 0;
    const Status st = store.LoadLatest(
        [&](int gen) { return ReadInto(store, gen, &payload); }, &loaded);
    ASSERT_TRUE(st.ok()) << name << ": " << st.ToString();
    EXPECT_EQ(loaded, 2) << name;
    EXPECT_EQ(payload, "two\n") << name;
    EXPECT_EQ(store.pinned(), 2) << name;
  }
}

TEST_F(DurableIoTest, StoreWhereEveryLoadFailsIsIOErrorNamingNewest) {
  GenerationStore store = TestStore(dir_.string());
  for (int gen = 1; gen <= 3; ++gen) ASSERT_TRUE(store.Write(gen, "x").ok());
  std::vector<int> tried;
  const Status st = store.LoadLatest([&](int gen) {
    tried.push_back(gen);
    return Status::IOError("boom " + std::to_string(gen));
  });
  ASSERT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(tried, (std::vector<int>{3, 2, 1}));
  EXPECT_NE(st.message().find("all 3 test generations under " + dir_.string() +
                              " failed validation (newest error: boom 3)"),
            std::string::npos)
      << st.message();
  EXPECT_EQ(store.pinned(), -1);
}

TEST_F(DurableIoTest, StoreWithNoGenerationIsNotFound) {
  GenerationStore store = TestStore(dir_.string());
  int calls = 0;
  auto count = [&](int) {
    ++calls;
    return Status::OK();
  };
  EXPECT_EQ(store.LoadLatest(count).code(), StatusCode::kNotFound);
  GenerationStore missing = TestStore(Path("no such dir"));
  EXPECT_EQ(missing.LoadLatest(count).code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(store.ReadPayload(1).status().code(), StatusCode::kNotFound);
}

TEST_F(DurableIoTest, StoreReadPayloadRejectsBadChecksum) {
  GenerationStore store = TestStore(dir_.string());
  ASSERT_TRUE(store.Write(1, "precious").ok());
  std::string bytes = ReadFileToString(store.Path(1)).ValueOrDie();
  bytes[0] ^= 0x01;
  ASSERT_TRUE(AtomicWriteFile(store.Path(1), bytes).ok());
  auto read = store.ReadPayload(1);
  ASSERT_EQ(read.status().code(), StatusCode::kIOError);
  EXPECT_NE(read.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST_F(DurableIoTest, RetryTransientRecoversFromTransientFault) {
  RetryPolicy fast;
  fast.base_backoff_ms = 0.01;
  fast.max_backoff_ms = 0.02;
  int calls = 0;
  Status st = RetryTransient(fast, [&] {
    return ++calls < 3 ? Status::IOError("flaky") : Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
}

TEST_F(DurableIoTest, RetryTransientDoesNotRetryNonIOErrors) {
  int calls = 0;
  Status st = RetryTransient(RetryPolicy{}, [&] {
    ++calls;
    return Status::InvalidArgument("deterministic");
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);  // retrying a parse error cannot help
}

TEST_F(DurableIoTest, RetryTransientGivesUpAfterMaxAttempts) {
  RetryPolicy fast;
  fast.max_attempts = 4;
  fast.base_backoff_ms = 0.01;
  fast.max_backoff_ms = 0.02;
  int calls = 0;
  Status st = RetryTransient(fast, [&] {
    ++calls;
    return Status::IOError("persistent");
  });
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 4);
}

TEST_F(DurableIoTest, RetryTransientResultCarriesValueThrough) {
  RetryPolicy fast;
  fast.base_backoff_ms = 0.01;
  fast.max_backoff_ms = 0.02;
  int calls = 0;
  auto r = RetryTransientResult(fast, [&]() -> Result<int> {
    if (++calls < 2) return Status::IOError("flaky");
    return 42;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace galign
