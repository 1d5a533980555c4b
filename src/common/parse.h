// Strict, non-throwing numeric parsing for loaders. std::stoll/std::stoi
// throw on garbage and silently accept trailing junk ("12abc" -> 12); file
// loaders must instead reject corrupt fields with a descriptive Status.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/status.h"

namespace galign {

/// \brief `token`, single-quoted, for an error message about a payload.
///
/// At most the first 32 bytes are quoted, each byte outside printable ASCII
/// written as \xNN, and a cut token is followed by its full length. A token
/// runs to the next whitespace, so a hostile file could otherwise put
/// megabytes of raw, non-UTF-8 bytes into one message, and from there into
/// the log, a swap quarantine record and `galign_serve --mode=health`.
inline std::string QuoteToken(std::string_view token) {
  constexpr size_t kMaxQuoted = 32;
  std::string out = "'";
  for (const char c : token.substr(0, kMaxQuoted)) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
      out += c;
    } else {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\x%02x", byte);
      out += escaped;
    }
  }
  out += '\'';
  if (token.size() > kMaxQuoted) {
    out += "... (" + std::to_string(token.size()) + " bytes)";
  }
  return out;
}

/// Parses a whole string as a base-10 signed 64-bit integer. The entire
/// string must be consumed: "12abc", "", and out-of-range values all fail.
/// `what` names the field for the error message ("node count", "layers").
[[nodiscard]] inline Result<int64_t> ParseInt64(const std::string& s, const char* what) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return Status::IOError(std::string("malformed ") + what + ": " +
                           QuoteToken(s));
  }
  if (errno == ERANGE) {
    return Status::IOError(std::string(what) + " out of range: " +
                           QuoteToken(s));
  }
  return static_cast<int64_t>(v);
}

/// Parses a whole string as a double. Unlike istream extraction (which
/// fails outright on "nan"/"inf" text under libstdc++), strtod accepts
/// them — so loaders can reject non-finite payloads with a precise message
/// instead of a generic parse failure.
[[nodiscard]] inline Result<double> ParseDouble(const std::string& s, const char* what) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::IOError(std::string("malformed ") + what + ": " +
                           QuoteToken(s));
  }
  if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
    return Status::IOError(std::string(what) + " out of range: " +
                           QuoteToken(s));
  }
  return v;
}

}  // namespace galign
