#include "align/alignment_io.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/durable_io.h"
#include "common/fault.h"
#include "common/parse.h"

namespace galign {

Status SaveAlignmentMatrix(const Matrix& s, const std::string& path) {
  std::ostringstream out;
  out.precision(17);
  out << "# alignment rows=" << s.rows() << " cols=" << s.cols() << "\n";
  for (int64_t r = 0; r < s.rows(); ++r) {
    const double* row = s.row_data(r);
    for (int64_t c = 0; c < s.cols(); ++c) {
      if (c) out << "\t";
      out << row[c];
    }
    out << "\n";
  }
  return AtomicWriteFile(path, out.str());
}

Result<Matrix> LoadAlignmentMatrix(const std::string& path) {
  // Bounded jittered retry over the raw read; parse failures are never
  // retried (a corrupt file stays corrupt).
  auto content =
      RetryTransientResult(RetryPolicy{}, [&]() -> Result<std::string> {
        if (fault::ShouldFailIO("io.alignment.load")) {
          return Status::IOError("injected fault: cannot read alignment " +
                                 path);
        }
        return ReadFileToString(path);
      });
  GALIGN_RETURN_NOT_OK(content.status());
  std::istringstream in(content.ValueOrDie());
  std::string line;
  std::vector<std::vector<double>> rows;
  size_t width = 0;
  int64_t declared_rows = -1, declared_cols = -1;
  int64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // SaveAlignmentMatrix writes "# alignment rows=R cols=C"; when the
      // header survives, use it to detect truncated files. Other comment
      // lines pass through untouched.
      if (line.rfind("# alignment", 0) != 0) continue;
      std::istringstream hs(line);
      std::string tok;
      while (hs >> tok) {
        auto eq = tok.find('=');
        if (eq == std::string::npos) continue;
        auto parsed = ParseInt64(tok.substr(eq + 1), tok.substr(0, eq).c_str());
        if (!parsed.ok()) {
          return Status::IOError(path + ":" + std::to_string(lineno) + ": " +
                                 parsed.status().message());
        }
        if (tok.compare(0, eq, "rows") == 0) declared_rows = parsed.ValueOrDie();
        if (tok.compare(0, eq, "cols") == 0) declared_cols = parsed.ValueOrDie();
      }
      continue;
    }
    std::istringstream ls(line);
    std::vector<double> row;
    std::string tok;
    while (ls >> tok) {
      auto v = ParseDouble(tok, "alignment score");
      if (!v.ok()) {
        return Status::IOError(path + ":" + std::to_string(lineno) + ": " +
                               v.status().message());
      }
      if (!std::isfinite(v.ValueOrDie())) {
        return Status::IOError(path + ":" + std::to_string(lineno) +
                               ": non-finite alignment score " + QuoteToken(tok));
      }
      row.push_back(v.ValueOrDie());
    }
    if (rows.empty()) {
      width = row.size();
    } else if (row.size() != width) {
      return Status::IOError(path + ":" + std::to_string(lineno) +
                             ": ragged alignment matrix (expected " +
                             std::to_string(width) + " columns, got " +
                             std::to_string(row.size()) + ")");
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return Status::IOError("empty alignment matrix: " + path);
  if (declared_rows >= 0 &&
      (declared_rows != static_cast<int64_t>(rows.size()) ||
       (declared_cols >= 0 && declared_cols != static_cast<int64_t>(width)))) {
    return Status::IOError(
        path + ": header declares " + std::to_string(declared_rows) + "x" +
        std::to_string(declared_cols) + " but file holds " +
        std::to_string(rows.size()) + "x" + std::to_string(width) +
        " (truncated or corrupt)");
  }
  Matrix m(static_cast<int64_t>(rows.size()), static_cast<int64_t>(width));
  for (size_t r = 0; r < rows.size(); ++r) {
    std::copy(rows[r].begin(), rows[r].end(),
              m.row_data(static_cast<int64_t>(r)));
  }
  return m;
}

Status SaveAnchors(const Matrix& s, const std::vector<int64_t>& anchors,
                   const std::string& path) {
  std::ostringstream out;
  out.precision(10);
  for (size_t v = 0; v < anchors.size(); ++v) {
    int64_t t = anchors[v];
    if (t == -1) continue;
    out << v << "\t" << t << "\t" << s(static_cast<int64_t>(v), t) << "\n";
  }
  return AtomicWriteFile(path, out.str());
}

Result<std::vector<int64_t>> LoadAnchors(const std::string& path,
                                         int64_t num_source_nodes) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::vector<int64_t> anchors(num_source_nodes, -1);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    int64_t s, t;
    if (!(ls >> s >> t)) {
      return Status::IOError("malformed anchor line: " + QuoteToken(line));
    }
    if (s < 0 || s >= num_source_nodes) {
      return Status::IOError("anchor source out of range");
    }
    anchors[s] = t;
  }
  return anchors;
}

}  // namespace galign
