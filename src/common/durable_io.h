// Durable file IO primitives (DESIGN.md §8).
//
// Building blocks shared by model/alignment writers, the trainer
// checkpointer, the serving artifact and the bench cell cache:
//
//  * AtomicWriteFile — write-to-temp → fsync → rename, so a reader (or a
//    process resuming after a crash) never observes a torn file: it sees
//    either the old complete content or the new complete content.
//  * CRC32 trailers — AppendCrc32Trailer stamps a payload with a trailing
//    `#crc32 <hex>` line; StripAndVerifyCrc32Trailer detects any bit rot or
//    truncation that slipped past the rename barrier (e.g. media faults).
//  * RetryTransient — seeded, jittered exponential backoff for transient
//    IO failures, bounded in attempts so persistent faults still surface.
//  * The text codec — HexDouble / AppendHexDoubles write bit-exact doubles,
//    TextCursor reads the token stream back without a stream object.
//  * GenerationStore — the generation-directory format (numbered CRC'd
//    files, a MANIFEST, retention with pinning, newest-first loading)
//    behind both trainer checkpoints and serving artifacts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/status.h"

namespace galign {

/// \brief CRC-32 (IEEE 802.3, reflected) of `data`.
///
/// Slicing-by-8: eight table lookups per 8-byte word, the word assembled
/// byte by byte so no endianness is assumed (DESIGN.md §8). Check value:
/// Crc32("123456789") == 0xCBF43926.
uint32_t Crc32(const void* data, size_t size);
uint32_t Crc32(std::string_view data);

/// \brief Extends `crc`, the Crc32 of the bytes before `data` (0 for
/// none), over `size` more bytes: Crc32Update(Crc32(a), b) == Crc32(a + b).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

/// \brief Durably replaces `path` with `content`.
///
/// Writes `path`.tmp.<pid>.<seq>, fsyncs it, then rename(2)s over `path`
/// and fsyncs the containing directory. POSIX rename atomicity guarantees any
/// concurrent or post-crash reader sees either the previous file or the
/// full new content — never a prefix.
[[nodiscard]] Status AtomicWriteFile(const std::string& path, const std::string& content);

/// \brief Reads the entire file at `path` into a string (one allocation
/// sized by fstat, then read(2) until end of file).
[[nodiscard]] Result<std::string> ReadFileToString(const std::string& path);

/// \brief Bit-exact text encoding of a double: the 16 lowercase hex digits
/// of its IEEE-754 bit pattern.
///
/// operator<< at precision(17) round-trips finite values but istream >>
/// refuses "inf"/"nan", and bit identity (not value identity) is the
/// durability contract — so every persisted double goes through this.
std::string HexDouble(double d);

/// \brief Appends `n` values as HexDouble tokens, `per_line` to a line:
/// single spaces between tokens, a newline after every `per_line`-th and
/// after the last. Writes exactly 17 * n bytes.
void AppendHexDoubles(std::string* out, const double* values, size_t n,
                      size_t per_line);

/// \brief Inverse of HexDouble. IOError naming `context` when `tok` is not
/// exactly 16 lowercase hex digits.
[[nodiscard]] Result<double> ParseHexDouble(std::string_view tok,
                                            const std::string& context);

/// \brief Forward-only reader over a text payload: the token grammar of
/// `std::istream >>` without a stream or a string per token (DESIGN.md
/// §12).
///
/// Whitespace is what `operator>>` skips in the C locale: space, \t, \n,
/// \v, \f and \r. The cursor only views `text`, which must outlive it.
class TextCursor {
 public:
  explicit TextCursor(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// Next whitespace-delimited token; empty once the text is exhausted.
  std::string_view Token();
  /// True when the next token is exactly `word`.
  bool Expect(std::string_view word) { return Token() == word; }
  /// Skips whitespace, then reads an optional sign and decimal digits,
  /// stopping at the first non-digit as `in >> int64_t` does. False when
  /// there is no digit or the value overflows.
  bool Int64(int64_t* value);
  /// Int64 restricted to the range of int.
  bool Int(int* value);
  /// \brief Next `n` tokens as HexDoubles into `values`.
  ///
  /// IOError "truncated <what> in <context>" when the text runs out, and
  /// ParseHexDouble's error at the first token that is not exactly 16
  /// lowercase hex digits.
  [[nodiscard]] Status HexDoubles(double* values, size_t n,
                                  const std::string& what,
                                  const std::string& context);
  /// Next raw byte, as istream::get; false at the end.
  bool Get(char* c);
  /// Next `n` raw bytes; false, consuming nothing, when fewer remain.
  bool Bytes(size_t n, std::string_view* out);
  /// Bytes not yet consumed.
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }
  /// True when `count` items of at least `min_bytes` each can still fit in
  /// what is left. Parsers ask before allocating room for a count read from
  /// the payload, so a hostile header cannot request more memory than the
  /// payload could ever fill.
  bool Fits(uint64_t count, uint64_t min_bytes) const {
    return count <= remaining() / min_bytes;
  }

 private:
  void SkipSpace();

  const char* pos_;
  const char* end_;
};

/// Trailer line marking the CRC of everything before it in the file.
inline constexpr char kCrcTrailerPrefix[] = "#crc32 ";

/// \brief Returns `payload` with a `#crc32 <hex>` trailer line appended.
///
/// The checksum covers every byte before the trailer line (a trailing
/// newline is added to the payload if missing, and is covered). The
/// payload is extended in place: pass an rvalue to avoid a copy.
std::string AppendCrc32Trailer(std::string payload);

/// \brief Verifies and removes a `#crc32` trailer.
///
/// Returns the payload without the trailer, truncated in place (pass an
/// rvalue to avoid a copy). When `require_trailer` is false and no trailer
/// is present the payload is returned as-is (legacy files written before
/// checksumming); a present-but-wrong trailer is always an IOError
/// mentioning "checksum mismatch".
[[nodiscard]] Result<std::string> StripAndVerifyCrc32Trailer(
    std::string content, bool require_trailer, const std::string& context);

/// \brief StripAndVerifyCrc32Trailer(<file at path>, true, path) without
/// holding the file: the trailer line is found from the file's tail and
/// the bytes before it are checksummed in fixed-size chunks. OK exactly
/// when that call would succeed; a failing verdict carries its message.
[[nodiscard]] Status VerifyCrc32TrailerFile(const std::string& path);

/// \brief Bounded retry schedule for transient IO faults.
///
/// Backoff for attempt k (1-based) is base_backoff_ms * 2^(k-1), capped at
/// max_backoff_ms, each multiplied by a seeded jitter in [0.5, 1.0] so
/// colliding retriers decorrelate deterministically.
struct RetryPolicy {
  int max_attempts = 3;
  double base_backoff_ms = 1.0;
  double max_backoff_ms = 8.0;
  uint64_t seed = 0x9e3779b97f4a7c15ull;
};

/// \brief Runs `fn` (a callable returning Status) under `policy`.
///
/// Only kIOError results are retried — parse/corruption errors surface on
/// the first attempt. Sleeps the jittered backoff between attempts and
/// returns the last Status when attempts are exhausted.
template <typename Fn>
[[nodiscard]] Status RetryTransient(const RetryPolicy& policy, Fn&& fn);

namespace internal {
/// Jittered backoff duration in ms for `attempt` (1-based) under `policy`.
double BackoffMillis(const RetryPolicy& policy, int attempt);
/// Sleeps the backoff for `attempt` (1-based) under `policy`. `floor_ms`
/// raises (never lowers) the sleep — a server-provided retry-after hint is
/// a promise that earlier retries are wasted, so it acts as a floor under
/// the schedule's own jittered backoff.
void BackoffSleep(const RetryPolicy& policy, int attempt,
                  double floor_ms = 0.0);
}  // namespace internal

/// \brief A directory of numbered, CRC-framed generations (DESIGN.md §13):
/// the on-disk format of trainer checkpoints and serving artifacts.
///
/// Generation `gen` >= 1 is the file `<prefix>` + `gen` as exactly 8
/// digits; no other name in the directory is read, listed or deleted. Each
/// is written by AtomicWriteFile with a CRC32 trailer, and every retention
/// pass rewrites `<dir>/MANIFEST`: `manifest_magic`, the survivors' names
/// newest-first, a CRC trailer. Callers bring the payload codec and their
/// fault sites; `noun` names the generations in messages.
class GenerationStore {
 public:
  GenerationStore(std::string dir, std::string prefix,
                  std::string manifest_magic, std::string noun, int keep);

  std::string Path(int gen) const;
  /// Highest generation in the directory (a scan), or 0.
  int Newest() const;
  /// Generations newest-first: MANIFEST order when the manifest is intact
  /// and names one, else a directory scan.
  std::vector<int> Candidates() const;

  /// Creates the directory, durably writes `payload` (moved into its CRC
  /// framing, never copied) as generation `gen`, then ApplyRetention().
  [[nodiscard]] Status Write(int gen, std::string payload);

  /// \brief Keep-last-N retention with last-good pinning.
  ///
  /// Survivors are the `keep` newest CRC-valid generations plus the pinned
  /// one when it is valid, so the generation a live reader depends on is
  /// never pruned out from under it. The manifest is rewritten before any
  /// file is deleted, so a crash mid-pass never leaves it naming a removed
  /// file. Validity is VerifyCrc32TrailerFile, re-checked on every pass
  /// (bit rot does not change a file's mtime) and streamed. Torn files are
  /// deleted, each with a logged warning, only when a valid generation
  /// survives: an all-torn directory keeps its evidence, so LoadLatest
  /// still reports an IOError instead of a silent NotFound.
  [[nodiscard]] Status ApplyRetention();

  /// Generation `gen`'s payload, trailer verified and removed: NotFound when
  /// the file cannot be read, IOError when the trailer is missing or wrong.
  [[nodiscard]] Result<std::string> ReadPayload(int gen) const;

  /// \brief Runs `load` on each candidate, newest first, until one returns
  /// OK; each failure is logged and the previous generation tried.
  ///
  /// Pins the generation that loads and reports it through `loaded_gen`.
  /// NotFound when there is no generation (a cold start); IOError "all N
  /// <noun> generations under <dir> failed validation (newest error: ...)"
  /// when every one failed (durable state was lost). The callers' recovery
  /// differs, so the types must.
  [[nodiscard]] Status LoadLatest(const std::function<Status(int gen)>& load,
                                  int* loaded_gen = nullptr) const;

  /// Last-good pinning: `gen` survives retention regardless of age.
  void Pin(int gen) { pinned_.store(gen); }
  int pinned() const { return pinned_.load(); }

 private:
  /// `<prefix>` + `gen` as 8 digits.
  std::string Name(int gen) const;
  /// The generation `name` spells, or -1.
  int GenerationOf(std::string_view name) const;
  /// Generations in the directory, newest first.
  std::vector<int> Scan(std::error_code* ec) const;

  const std::string dir_;
  const std::string prefix_;
  const std::string manifest_magic_;
  const std::string noun_;
  const int keep_;
  /// Last generation handed to a caller as good; -1 until then.
  mutable std::atomic<int> pinned_{-1};
};

template <typename Fn>
[[nodiscard]] Status RetryTransient(const RetryPolicy& policy, Fn&& fn) {
  Status last = Status::OK();
  int attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    last = fn();
    if (last.ok() || last.code() != StatusCode::kIOError) return last;
    if (attempt < attempts) internal::BackoffSleep(policy, attempt);
  }
  return last;
}

/// \brief Result-returning sibling of RetryTransient.
///
/// `fn` returns Result<T>; only kIOError outcomes are retried, and the
/// final attempt's result (success or not) is returned verbatim.
template <typename Fn>
auto RetryTransientResult(const RetryPolicy& policy, Fn&& fn)
    -> decltype(fn()) {
  int attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  for (int attempt = 1;; ++attempt) {
    auto res = fn();
    if (res.ok() || res.status().code() != StatusCode::kIOError ||
        attempt >= attempts) {
      return res;
    }
    internal::BackoffSleep(policy, attempt);
  }
}

}  // namespace galign
