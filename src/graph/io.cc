#include "graph/io.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/durable_io.h"
#include "common/fault.h"
#include "common/parse.h"

namespace galign {

Status SaveEdgeList(const AttributedGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out << "# nodes=" << g.num_nodes() << "\n";
  for (const auto& [u, v] : g.edges()) {
    out << u << " " << v << "\n";
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<AttributedGraph> LoadEdgeList(const std::string& path) {
  // Transient read faults get a bounded, jittered retry; malformed content
  // fails on the first attempt.
  auto content =
      RetryTransientResult(RetryPolicy{}, [&]() -> Result<std::string> {
        if (fault::ShouldFailIO("io.edges.load")) {
          return Status::IOError("injected fault: cannot read edge list " +
                                 path);
        }
        return ReadFileToString(path);
      });
  GALIGN_RETURN_NOT_OK(content.status());
  std::istringstream in(content.ValueOrDie());
  std::vector<Edge> edges;
  int64_t num_nodes = -1;
  int64_t max_id = -1;
  std::string line;
  int64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      auto pos = line.find("nodes=");
      if (pos != std::string::npos) {
        std::string value = line.substr(pos + 6);
        value = value.substr(0, value.find_first_of(" \t\r"));
        auto parsed = ParseInt64(value, "node count");
        if (!parsed.ok()) {
          return Status::IOError(path + ":" + std::to_string(lineno) + ": " +
                                 parsed.status().message());
        }
        num_nodes = parsed.ValueOrDie();
        if (num_nodes < 0) {
          return Status::IOError(path + ":" + std::to_string(lineno) +
                                 ": negative node count " +
                                 std::to_string(num_nodes));
        }
      }
      continue;
    }
    std::istringstream ls(line);
    int64_t u, v;
    if (!(ls >> u >> v)) {
      return Status::IOError(path + ":" + std::to_string(lineno) +
                             ": malformed edge line: " + QuoteToken(line));
    }
    if (u < 0 || v < 0) {
      return Status::IOError(path + ":" + std::to_string(lineno) +
                             ": negative node id in: " + QuoteToken(line));
    }
    edges.emplace_back(u, v);
    max_id = std::max({max_id, u, v});
  }
  if (num_nodes < 0) {
    // max_id + 1 would overflow for an id of INT64_MAX.
    if (max_id == std::numeric_limits<int64_t>::max()) {
      return Status::IOError(path + ": node id " + std::to_string(max_id) +
                             " too large");
    }
    num_nodes = max_id + 1;
  }
  if (max_id >= num_nodes) {
    return Status::IOError(path + ": edge endpoint " + std::to_string(max_id) +
                           " exceeds declared node count " +
                           std::to_string(num_nodes));
  }
  return AttributedGraph::Create(num_nodes, std::move(edges), Matrix());
}

Status SaveAttributes(const Matrix& attributes, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.precision(17);
  for (int64_t r = 0; r < attributes.rows(); ++r) {
    for (int64_t c = 0; c < attributes.cols(); ++c) {
      if (c) out << "\t";
      out << attributes(r, c);
    }
    out << "\n";
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Matrix> LoadAttributes(const std::string& path) {
  auto content =
      RetryTransientResult(RetryPolicy{}, [&]() -> Result<std::string> {
        if (fault::ShouldFailIO("io.attrs.load")) {
          return Status::IOError("injected fault: cannot read attributes " +
                                 path);
        }
        return ReadFileToString(path);
      });
  GALIGN_RETURN_NOT_OK(content.status());
  std::istringstream in(content.ValueOrDie());
  std::vector<std::vector<double>> rows;
  std::string line;
  size_t width = 0;
  int64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::vector<double> row;
    std::string tok;
    while (ls >> tok) {
      auto v = ParseDouble(tok, "attribute value");
      if (!v.ok()) {
        return Status::IOError(path + ":" + std::to_string(lineno) + ": " +
                               v.status().message());
      }
      if (!std::isfinite(v.ValueOrDie())) {
        return Status::IOError(path + ":" + std::to_string(lineno) +
                               ": non-finite attribute value " + QuoteToken(tok));
      }
      row.push_back(v.ValueOrDie());
    }
    if (rows.empty()) {
      width = row.size();
    } else if (row.size() != width) {
      return Status::IOError(path + ":" + std::to_string(lineno) +
                             ": ragged attribute row (expected " +
                             std::to_string(width) + " columns, got " +
                             std::to_string(row.size()) + ")");
    }
    rows.push_back(std::move(row));
  }
  Matrix m(static_cast<int64_t>(rows.size()), static_cast<int64_t>(width));
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < width; ++c) {
      m(static_cast<int64_t>(r), static_cast<int64_t>(c)) = rows[r][c];
    }
  }
  return m;
}

Status SaveGroundTruth(const std::vector<int64_t>& ground_truth,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  for (size_t v = 0; v < ground_truth.size(); ++v) {
    if (ground_truth[v] != -1) {
      out << v << " " << ground_truth[v] << "\n";
    }
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<std::vector<int64_t>> LoadGroundTruth(const std::string& path,
                                             int64_t num_source_nodes) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::vector<int64_t> gt(num_source_nodes, -1);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    int64_t s, t;
    if (!(ls >> s >> t)) {
      return Status::IOError(path + ": malformed ground-truth line: " +
                             QuoteToken(line));
    }
    if (s < 0 || s >= num_source_nodes) {
      return Status::IOError(path + ": ground-truth source " +
                             std::to_string(s) + " out of range [0, " +
                             std::to_string(num_source_nodes) + ")");
    }
    if (t < 0) {
      return Status::IOError(path + ": negative ground-truth target " +
                             std::to_string(t) + " for source " +
                             std::to_string(s));
    }
    gt[s] = t;
  }
  return gt;
}

}  // namespace galign
