#include "graph/ann/ann_io.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "common/durable_io.h"
#include "common/parse.h"

namespace galign {

namespace {

constexpr char kRecipeMagic[] = "galign-ann-recipe-v2";
// v1 recipes also named a backend and carried three HNSW knobs; an `lsh`
// v1 recipe describes exactly the index a v2 recipe does.
constexpr char kRecipeMagicV1[] = "galign-ann-recipe-v1";
// lsh_tables arrives from disk and sizes the hyperplane matrix, so it is
// capped like the artifact's other counts: 8x the default.
constexpr int64_t kMaxRecipeLshTables = 64;

}  // namespace

uint32_t AnnIndexFingerprint(const AnnIndex& index) {
  const Matrix& base = index.base();
  const int64_t probes = std::min<int64_t>(16, index.size());
  const int64_t k = std::min<int64_t>(8, index.size());
  if (probes == 0 || k == 0) return Crc32("empty-ann-index");
  const Matrix probe_rows = base.Block(0, 0, probes, base.cols());
  // Unbounded context: the probe batch is tiny and must never be truncated
  // by an ambient deadline — a partial probe would change the fingerprint.
  auto got = index.QueryBatch(probe_rows, k, RunContext());
  if (!got.ok()) return Crc32("ann-probe-failed");
  const TopKAlignment& t = got.ValueOrDie();
  std::string bytes;
  bytes.reserve(t.index.size() * (sizeof(int64_t) + sizeof(double)));
  for (size_t i = 0; i < t.index.size(); ++i) {
    int64_t id = t.index[i];
    uint64_t score_bits = 0;
    std::memcpy(&score_bits, &t.score[i], sizeof(score_bits));
    bytes.append(reinterpret_cast<const char*>(&id), sizeof(id));
    bytes.append(reinterpret_cast<const char*>(&score_bits),
                 sizeof(score_bits));
  }
  return Crc32(bytes);
}

std::string SerializeAnnRecipe(const AnnIndex& index) {
  const AnnConfig& config = index.config();
  std::ostringstream out;
  out << kRecipeMagic << "\n";
  out << "seed " << config.seed << "\n";
  out << "lsh_tables " << config.lsh_tables << "\n";
  out << "lsh_bits " << config.lsh_bits << "\n";
  out << "lsh_probes " << config.lsh_probes << "\n";
  out << "rows " << index.base().rows() << "\n";
  out << "dim " << index.dim() << "\n";
  char fp[16];
  std::snprintf(fp, sizeof(fp), "%08x", AnnIndexFingerprint(index));
  out << "fingerprint " << fp << "\n";
  out << "end\n";
  return out.str();
}

Result<std::unique_ptr<AnnIndex>> RebuildAnnIndex(const std::string& payload,
                                                  Matrix base,
                                                  const RunContext& ctx,
                                                  const std::string& context) {
  std::istringstream in(payload);
  std::string tok;
  if (!(in >> tok) || (tok != kRecipeMagic && tok != kRecipeMagicV1)) {
    return Status::IOError("not an ANN recipe (bad magic) in " + context);
  }
  const bool v1 = tok == kRecipeMagicV1;
  AnnConfig config;
  int64_t rows = -1, dim = -1;
  std::string fingerprint_hex;
  auto read_kv = [&](const char* key, auto* value) -> Status {
    if (!(in >> tok) || tok != key || !(in >> *value)) {
      return Status::IOError("expected '" + std::string(key) + " <value>' in " +
                             context);
    }
    return Status::OK();
  };
  if (v1) {
    std::string backend;
    GALIGN_RETURN_NOT_OK(read_kv("backend", &backend));
    if (backend != "lsh") {
      return Status::IOError("ANN recipe in " + context + " names backend " +
                             QuoteToken(backend) +
                             ", which this build does not have; re-export "
                             "the artifact");
    }
  }
  GALIGN_RETURN_NOT_OK(read_kv("seed", &config.seed));
  GALIGN_RETURN_NOT_OK(read_kv("lsh_tables", &config.lsh_tables));
  GALIGN_RETURN_NOT_OK(read_kv("lsh_bits", &config.lsh_bits));
  GALIGN_RETURN_NOT_OK(read_kv("lsh_probes", &config.lsh_probes));
  if (v1) {
    // The HNSW knobs never affected an LSH index.
    int64_t unused = 0;
    for (const char* key :
         {"hnsw_degree", "hnsw_ef_construction", "hnsw_ef_search"}) {
      GALIGN_RETURN_NOT_OK(read_kv(key, &unused));
    }
  }
  GALIGN_RETURN_NOT_OK(read_kv("rows", &rows));
  GALIGN_RETURN_NOT_OK(read_kv("dim", &dim));
  GALIGN_RETURN_NOT_OK(read_kv("fingerprint", &fingerprint_hex));
  if (!(in >> tok) || tok != "end") {
    return Status::IOError("missing 'end' sentinel in ANN recipe " + context);
  }
  if (fingerprint_hex.size() != 8 ||
      fingerprint_hex.find_first_not_of("0123456789abcdef") !=
          std::string::npos) {
    return Status::IOError("bad ANN fingerprint " +
                           QuoteToken(fingerprint_hex) + " in " + context);
  }
  if (config.lsh_tables < 1 || config.lsh_tables > kMaxRecipeLshTables) {
    return Status::IOError("ANN recipe lsh_tables " +
                           std::to_string(config.lsh_tables) +
                           " outside [1, " +
                           std::to_string(kMaxRecipeLshTables) + "] in " +
                           context);
  }
  if (rows != base.rows() || dim != base.cols()) {
    return Status::IOError(
        "ANN recipe shape mismatch in " + context + ": recipe says " +
        std::to_string(rows) + "x" + std::to_string(dim) + ", base rows are " +
        std::to_string(base.rows()) + "x" + std::to_string(base.cols()));
  }
  const uint32_t want =
      static_cast<uint32_t>(std::strtoul(fingerprint_hex.c_str(), nullptr, 16));

  auto index = BuildAnnIndex(std::move(base), config, ctx);
  GALIGN_RETURN_NOT_OK(index.status());
  const uint32_t got = AnnIndexFingerprint(*index.ValueOrDie());
  if (got != want) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "ANN fingerprint mismatch (saved %08x, rebuilt %08x) in ",
                  want, got);
    return Status::IOError(std::string(buf) + context);
  }
  return index;
}

}  // namespace galign
