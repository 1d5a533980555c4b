#include "common/durable_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <sstream>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/parse.h"

namespace galign {

namespace {

// Slicing-by-8 tables: row 0 is the byte-at-a-time table of the reflected
// IEEE polynomial; row k advances a byte's contribution k more zero bytes,
// so one step folds eight input bytes with eight independent lookups.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables BuildCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32 = BuildCrc32Tables();

// Little-endian word from four bytes, whatever the host's byte order.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Digit pairs of every byte value, for the table-driven HexDouble writer.
using HexPairs = std::array<std::array<char, 2>, 256>;

constexpr HexPairs BuildHexPairs() {
  constexpr char kDigits[] = "0123456789abcdef";
  HexPairs pairs{};
  for (size_t b = 0; b < 256; ++b) {
    pairs[b] = {kDigits[b >> 4], kDigits[b & 0xFu]};
  }
  return pairs;
}

constexpr HexPairs kHexPairs = BuildHexPairs();

// Writes the 16 HexDouble digits of `d` at `out`; returns the end.
inline char* WriteHexDouble(char* out, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  for (int shift = 56; shift >= 0; shift -= 8) {
    const auto& pair = kHexPairs[(bits >> shift) & 0xFFu];
    *out++ = pair[0];
    *out++ = pair[1];
  }
  return out;
}

// Nibble value of a lowercase hex digit, or 0xFF.
using HexValues = std::array<uint8_t, 256>;

constexpr HexValues BuildHexValues() {
  HexValues v{};
  for (size_t c = 0; c < 256; ++c) v[c] = 0xFF;
  for (uint8_t d = 0; d < 10; ++d) v['0' + d] = d;
  for (uint8_t d = 0; d < 6; ++d) v['a' + d] = static_cast<uint8_t>(10 + d);
  return v;
}

constexpr HexValues kHexValues = BuildHexValues();

// Decodes the 16 digits at `p`; false unless all are lowercase hex. The
// two halves accumulate independently.
inline bool DecodeHex16(const char* p, double* out) {
  uint64_t hi = 0, lo = 0;
  uint8_t bad = 0;
  for (int k = 0; k < 8; ++k) {
    const uint8_t a = kHexValues[static_cast<unsigned char>(p[k])];
    const uint8_t b = kHexValues[static_cast<unsigned char>(p[k + 8])];
    bad |= a | b;
    hi = hi << 4 | (a & 0xFu);
    lo = lo << 4 | (b & 0xFu);
  }
  if (bad & 0xF0u) return false;
  const uint64_t bits = hi << 32 | lo;
  std::memcpy(out, &bits, sizeof(bits));
  return true;
}

// Decodes a HexDouble token; false unless it is exactly 16 lowercase hex
// digits.
inline bool DecodeHexDouble(std::string_view tok, double* out) {
  return tok.size() == 16 && DecodeHex16(tok.data(), out);
}

// What operator>> skips in the C locale.
inline bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// The last line of `s` that is not empty once trailing newlines are
// dropped: [start, end). end == 0 when `s` holds only newlines.
struct LineSpan {
  size_t start = 0;
  size_t end = 0;
};

LineSpan LastLine(std::string_view s) {
  LineSpan line;
  line.end = s.size();
  while (line.end > 0 && s[line.end - 1] == '\n') --line.end;
  if (line.end == 0) return line;
  const size_t nl = s.rfind('\n', line.end - 1);
  line.start = nl == std::string_view::npos ? 0 : nl + 1;
  return line;
}

enum class Trailer { kMissing, kMalformed, kPresent };

// Reads the stored checksum out of `line`, the last non-empty line. The
// value goes through `operator>> std::hex`, whose leniency (leading blanks,
// a 0x prefix, trailing junk) defines which trailers files already carry.
Trailer ParseTrailerLine(std::string_view line, uint32_t* stored) {
  const size_t prefix_len = sizeof(kCrcTrailerPrefix) - 1;
  if (line.substr(0, prefix_len) != kCrcTrailerPrefix) return Trailer::kMissing;
  std::istringstream hs{std::string(line.substr(prefix_len))};
  hs >> std::hex >> *stored;
  return hs.fail() ? Trailer::kMalformed : Trailer::kPresent;
}

Status TrailerError(Trailer state, const std::string& context) {
  return Status::IOError(std::string(state == Trailer::kMissing
                                         ? "missing #crc32 trailer in "
                                         : "malformed #crc32 trailer in ") +
                         context);
}

Status ChecksumMismatch(uint32_t stored, uint32_t actual,
                        const std::string& context) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "checksum mismatch (stored %08x, computed %08x) in ", stored,
                actual);
  return Status::IOError(buf + context);
}

// Reads exactly `size` bytes at `offset`; false on error or a short file.
bool PreadFully(int fd, char* buf, size_t size, off_t offset) {
  while (size > 0) {
    const ssize_t n = ::pread(fd, buf, size, offset);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf += n;
    size -= static_cast<size_t>(n);
    offset += n;
  }
  return true;
}

// Closes a file descriptor when it goes out of scope.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

// Directory part of `path` ("." when the path has no separator), used to
// fsync the directory entry after rename so the new name itself is durable.
std::string DirOf(const std::string& path) {
  auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const Crc32Tables& t = kCrc32;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return ~c;
}

uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

uint32_t Crc32(std::string_view data) {
  return Crc32Update(0, data.data(), data.size());
}

Status AtomicWriteFile(const std::string& path, const std::string& content) {
  // The pid keeps processes apart and the sequence number keeps threads
  // apart: two threads writing one path (a save's retention pass and the
  // swap watcher's, both rewriting MANIFEST) must not share a temp file,
  // or one rename finds it already gone.
  static std::atomic<uint64_t> sequence{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("cannot create", tmp));

  const char* buf = content.data();
  size_t remaining = content.size();
  while (remaining > 0) {
    ssize_t n = ::write(fd, buf, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::IOError(ErrnoMessage("write failed for", tmp));
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    }
    buf += n;
    remaining -= static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status st = Status::IOError(ErrnoMessage("fsync failed for", tmp));
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  if (::close(fd) != 0) {
    Status st = Status::IOError(ErrnoMessage("close failed for", tmp));
    ::unlink(tmp.c_str());
    return st;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::IOError(ErrnoMessage("rename failed onto", path));
    ::unlink(tmp.c_str());
    return st;
  }
  // Make the rename itself durable: fsync the directory entry. Failure here
  // is non-fatal for correctness of readers (the file content is complete),
  // so surface it but do not roll back.
  int dfd = ::open(DirOf(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open for read: " + path);
  FdCloser closer(fd);
  struct stat st {};
  const size_t size = ::fstat(fd, &st) == 0 && st.st_size > 0
                          ? static_cast<size_t>(st.st_size)
                          : 0;
  // One spare byte, so the read that sees end of file needs no growth.
  // Reading runs to end of file, not to the fstat size: the file may have
  // grown since, and special files report 0.
  std::string out(size + 1, '\0');
  size_t got = 0;
  for (;;) {
    if (got == out.size()) out.resize(2 * got);
    const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::IOError("read failed: " + path);
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  out.resize(got);
  return out;
}

std::string AppendCrc32Trailer(std::string payload) {
  if (payload.empty() || payload.back() != '\n') payload += '\n';
  char trailer[sizeof(kCrcTrailerPrefix) + 16];
  std::snprintf(trailer, sizeof(trailer), "%s%08x\n", kCrcTrailerPrefix,
                Crc32(payload));
  payload += trailer;
  return payload;
}

Result<std::string> StripAndVerifyCrc32Trailer(std::string content,
                                               bool require_trailer,
                                               const std::string& context) {
  const LineSpan line = LastLine(content);
  uint32_t stored = 0;
  const Trailer state = ParseTrailerLine(
      std::string_view(content).substr(line.start, line.end - line.start),
      &stored);
  if (state == Trailer::kMissing && !require_trailer) return content;
  if (state != Trailer::kPresent) return TrailerError(state, context);
  const uint32_t actual = Crc32(content.data(), line.start);
  if (actual != stored) return ChecksumMismatch(stored, actual, context);
  content.resize(line.start);
  return content;
}

Status VerifyCrc32TrailerFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open for read: " + path);
  FdCloser closer(fd);
  struct stat st {};
  if (::fstat(fd, &st) != 0) return Status::IOError("read failed: " + path);
  const size_t size = st.st_size > 0 ? static_cast<size_t>(st.st_size) : 0;

  // The trailer line, found from the tail: widen the window until the
  // line's start lies inside it or the window is the whole file.
  std::string tail;
  LineSpan line;
  size_t window = std::min<size_t>(size, 4096);
  for (;;) {
    tail.resize(window);
    if (!PreadFully(fd, tail.data(), window,
                    static_cast<off_t>(size - window))) {
      return Status::IOError("read failed: " + path);
    }
    line = LastLine(tail);
    if ((line.end > 0 && line.start > 0) || window == size) break;
    window = std::min(size, window * 2);
  }
  uint32_t stored = 0;
  const Trailer state = ParseTrailerLine(
      std::string_view(tail).substr(line.start, line.end - line.start),
      &stored);
  if (state != Trailer::kPresent) return TrailerError(state, path);

  // Checksum everything before the trailer line, one chunk at a time.
  const size_t payload_size = size - window + line.start;
  std::string chunk(size_t{256} << 10, '\0');
  uint32_t actual = 0;
  for (size_t at = 0; at < payload_size;) {
    const size_t n = std::min(chunk.size(), payload_size - at);
    if (!PreadFully(fd, chunk.data(), n, static_cast<off_t>(at))) {
      return Status::IOError("read failed: " + path);
    }
    actual = Crc32Update(actual, chunk.data(), n);
    at += n;
  }
  if (actual != stored) return ChecksumMismatch(stored, actual, path);
  return Status::OK();
}

std::string HexDouble(double d) {
  std::string out(16, '0');
  WriteHexDouble(out.data(), d);
  return out;
}

void AppendHexDoubles(std::string* out, const double* values, size_t n,
                      size_t per_line) {
  const size_t at = out->size();
  out->resize(at + 17 * n);
  char* p = out->data() + at;
  size_t left_on_line = per_line;
  for (size_t i = 0; i < n; ++i) {
    p = WriteHexDouble(p, values[i]);
    if (--left_on_line == 0 || i + 1 == n) {
      *p++ = '\n';
      left_on_line = per_line;
    } else {
      *p++ = ' ';
    }
  }
}

Result<double> ParseHexDouble(std::string_view tok,
                              const std::string& context) {
  double d = 0.0;
  if (!DecodeHexDouble(tok, &d)) {
    return Status::IOError("bad double bit pattern " + QuoteToken(tok) +
                           " in " + context);
  }
  return d;
}

void TextCursor::SkipSpace() {
  while (pos_ != end_ && IsSpace(*pos_)) ++pos_;
}

std::string_view TextCursor::Token() {
  SkipSpace();
  const char* begin = pos_;
  while (pos_ != end_ && !IsSpace(*pos_)) ++pos_;
  return std::string_view(begin, static_cast<size_t>(pos_ - begin));
}

bool TextCursor::Int64(int64_t* value) {
  SkipSpace();
  const char* p = pos_;
  const bool negative = p != end_ && *p == '-';
  if (p != end_ && (*p == '-' || *p == '+')) ++p;
  // Accumulate the magnitude unsigned; INT64_MIN's is one past INT64_MAX's.
  const uint64_t limit =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) + negative;
  uint64_t magnitude = 0;
  const char* digits = p;
  for (; p != end_ && *p >= '0' && *p <= '9'; ++p) {
    const uint64_t d = static_cast<uint64_t>(*p - '0');
    if (magnitude > (limit - d) / 10) return false;
    magnitude = magnitude * 10 + d;
  }
  if (p == digits) return false;
  pos_ = p;
  *value = negative ? static_cast<int64_t>(0 - magnitude)
                    : static_cast<int64_t>(magnitude);
  return true;
}

bool TextCursor::Int(int* value) {
  int64_t v = 0;
  if (!Int64(&v) || v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *value = static_cast<int>(v);
  return true;
}

Status TextCursor::HexDoubles(double* values, size_t n,
                              const std::string& what,
                              const std::string& context) {
  for (size_t i = 0; i < n; ++i) {
    SkipSpace();
    // The common case: 16 digits, then whitespace or the end of the text.
    const size_t left = remaining();
    if (left >= 16 && (left == 16 || IsSpace(pos_[16])) &&
        DecodeHex16(pos_, &values[i])) {
      pos_ += 16;
      continue;
    }
    const std::string_view tok = Token();
    if (tok.empty()) {
      return Status::IOError("truncated " + what + " in " + context);
    }
    auto value = ParseHexDouble(tok, context);
    GALIGN_RETURN_NOT_OK(value.status());
    values[i] = value.ValueOrDie();
  }
  return Status::OK();
}

bool TextCursor::Get(char* c) {
  if (pos_ == end_) return false;
  *c = *pos_++;
  return true;
}

bool TextCursor::Bytes(size_t n, std::string_view* out) {
  if (n > remaining()) return false;
  *out = std::string_view(pos_, n);
  pos_ += n;
  return true;
}

namespace internal {

double BackoffMillis(const RetryPolicy& policy, int attempt) {
  double backoff = policy.base_backoff_ms;
  for (int i = 1; i < attempt; ++i) backoff *= 2.0;
  if (backoff > policy.max_backoff_ms) backoff = policy.max_backoff_ms;
  // Deterministic per-(seed, attempt) jitter in [0.5, 1.0] decorrelates
  // concurrent retriers without a global RNG dependency.
  std::mt19937_64 gen(policy.seed + static_cast<uint64_t>(attempt));
  std::uniform_real_distribution<double> jitter(0.5, 1.0);
  return backoff * jitter(gen);
}

void BackoffSleep(const RetryPolicy& policy, int attempt, double floor_ms) {
  const double sleep_ms = std::max(BackoffMillis(policy, attempt), floor_ms);
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(sleep_ms));
}

}  // namespace internal

GenerationStore::GenerationStore(std::string dir, std::string prefix,
                                 std::string manifest_magic, std::string noun,
                                 int keep)
    : dir_(std::move(dir)),
      prefix_(std::move(prefix)),
      manifest_magic_(std::move(manifest_magic)),
      noun_(std::move(noun)),
      keep_(std::max(1, keep)) {}

std::string GenerationStore::Name(int gen) const {
  char digits[16];
  std::snprintf(digits, sizeof(digits), "%08d", gen);
  return prefix_ + digits;
}

std::string GenerationStore::Path(int gen) const {
  return dir_ + "/" + Name(gen);
}

int GenerationStore::GenerationOf(std::string_view name) const {
  if (name.size() != prefix_.size() + 8 || !name.starts_with(prefix_)) {
    return -1;
  }
  int gen = 0;
  for (const char c : name.substr(prefix_.size())) {
    if (c < '0' || c > '9') return -1;
    gen = gen * 10 + (c - '0');
  }
  return gen >= 1 ? gen : -1;
}

std::vector<int> GenerationStore::Scan(std::error_code* ec) const {
  std::vector<int> gens;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, *ec)) {
    const int gen = GenerationOf(entry.path().filename().string());
    if (gen > 0) gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end(), std::greater<int>());
  return gens;
}

int GenerationStore::Newest() const {
  std::error_code ec;
  const std::vector<int> gens = Scan(&ec);
  return gens.empty() ? 0 : gens.front();
}

std::vector<int> GenerationStore::Candidates() const {
  // The manifest reflects save order. A missing, torn or foreign one
  // degrades to a directory scan: the generation files are self-validating.
  const std::string manifest = dir_ + "/MANIFEST";
  auto content = ReadFileToString(manifest);
  if (content.ok()) {
    auto payload = StripAndVerifyCrc32Trailer(content.MoveValueOrDie(),
                                              /*require_trailer=*/true,
                                              manifest);
    if (!payload.ok()) {
      GALIGN_LOG(Warning) << noun_ << " manifest unreadable ("
                          << payload.status().message()
                          << "); falling back to directory scan";
    } else if (TextCursor in(payload.ValueOrDie());
               in.Expect(manifest_magic_)) {
      std::vector<int> gens;
      for (auto tok = in.Token(); !tok.empty(); tok = in.Token()) {
        if (const int gen = GenerationOf(tok); gen > 0) gens.push_back(gen);
      }
      if (!gens.empty()) return gens;
    }
  }
  std::error_code ec;
  return Scan(&ec);
}

Status GenerationStore::Write(int gen, std::string payload) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create " + noun_ + " dir " + dir_ + ": " +
                           ec.message());
  }
  GALIGN_RETURN_NOT_OK(
      AtomicWriteFile(Path(gen), AppendCrc32Trailer(std::move(payload))));
  return ApplyRetention();
}

Status GenerationStore::ApplyRetention() {
  std::error_code ec;
  const std::vector<int> gens = Scan(&ec);
  if (ec) {
    return Status::IOError("cannot scan generation dir " + dir_ + ": " +
                           ec.message());
  }
  std::vector<bool> valid;
  for (const int gen : gens) {
    valid.push_back(VerifyCrc32TrailerFile(Path(gen)).ok());
  }
  // A torn file is never a survivor, but it is only deleted when a valid
  // generation remains to serve from — an all-torn directory keeps its
  // evidence so loaders still report data loss (IOError) instead of a
  // clean NotFound.
  const bool any_valid =
      std::find(valid.begin(), valid.end(), true) != valid.end();
  const int pinned = pinned_.load();
  std::string manifest = manifest_magic_ + "\n";
  std::vector<size_t> victims;
  int kept = 0;
  for (size_t i = 0; i < gens.size(); ++i) {
    if (valid[i] && (kept < keep_ || gens[i] == pinned)) {
      manifest += Name(gens[i]) + "\n";
      ++kept;
    } else if (valid[i] || any_valid) {
      victims.push_back(i);
    }
  }
  // Manifest first: after this write no surviving reader path references a
  // victim, so deleting them cannot tear a concurrent load.
  GALIGN_RETURN_NOT_OK(
      AtomicWriteFile(dir_ + "/MANIFEST", AppendCrc32Trailer(manifest)));
  for (const size_t i : victims) {
    std::filesystem::remove(Path(gens[i]), ec);
    if (!valid[i]) {
      GALIGN_LOG(Warning) << noun_ << " " << Path(gens[i])
                          << " failed its CRC; garbage-collected";
    }
  }
  return Status::OK();
}

Result<std::string> GenerationStore::ReadPayload(int gen) const {
  auto content = ReadFileToString(Path(gen));
  if (!content.ok()) {
    return Status::NotFound(noun_ + " generation " + std::to_string(gen) +
                            " unreadable: " + content.status().message());
  }
  return StripAndVerifyCrc32Trailer(content.MoveValueOrDie(),
                                    /*require_trailer=*/true, Path(gen));
}

Status GenerationStore::LoadLatest(const std::function<Status(int gen)>& load,
                                   int* loaded_gen) const {
  int tried = 0;
  std::string newest_error;
  for (const int gen : Candidates()) {
    Status st = load(gen);
    if (st.ok()) {
      pinned_.store(gen);
      if (loaded_gen != nullptr) *loaded_gen = gen;
      return st;
    }
    if (tried++ == 0) newest_error = st.message();
    GALIGN_LOG(Warning) << noun_ << " " << Path(gen) << " failed to load ("
                        << st.message() << "); trying the previous one";
  }
  if (tried > 0) {
    return Status::IOError("all " + std::to_string(tried) + " " + noun_ +
                           " generations under " + dir_ +
                           " failed validation (newest error: " +
                           newest_error + ")");
  }
  return Status::NotFound("no " + noun_ + " generation under " + dir_);
}

}  // namespace galign
