#include "serve/alignment_index.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "common/durable_io.h"
#include "common/fault.h"
#include "common/logging.h"
#include "core/galign.h"
#include "core/model_io.h"
#include "graph/ann/ann.h"
#include "graph/ann/ann_io.h"

namespace galign {

namespace {

constexpr char kArtifactMagic[] = "galign-aidx-v1";
constexpr char kManifestMagic[] = "galign-aidx-manifest-v1";
constexpr char kManifestName[] = "MANIFEST";
constexpr char kFilePrefix[] = "aidx_";

std::string GenerationFileName(int gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08d", kFilePrefix, gen);
  return buf;
}

// Generation encoded in an artifact filename, or -1 when the name does not
// match aidx_<digits>.
int GenerationOfFileName(const std::string& name) {
  const size_t prefix_len = sizeof(kFilePrefix) - 1;
  if (name.compare(0, prefix_len, kFilePrefix) != 0) return -1;
  if (name.size() <= prefix_len) return -1;
  int gen = 0;
  for (size_t i = prefix_len; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    gen = gen * 10 + (name[i] - '0');
    if (gen > 99999999) return -1;
  }
  return gen;
}

// Reads `key <nbytes>\n` then exactly nbytes of raw payload (the embedded
// model / ANN-recipe sections, whose bodies are not token streams).
Status ReadRawSection(TextCursor* in, const char* key, std::string_view* out,
                      const std::string& context) {
  int64_t nbytes = -1;
  if (!in->Expect(key) || !in->Int64(&nbytes) || nbytes < 0 ||
      nbytes > (int64_t{1} << 30)) {
    return Status::IOError("expected '" + std::string(key) +
                           " <nbytes>' in " + context);
  }
  char newline = 0;
  if (!in->Get(&newline) || newline != '\n') {
    return Status::IOError("missing newline after '" + std::string(key) +
                           "' header in " + context);
  }
  if (!in->Bytes(static_cast<size_t>(nbytes), out)) {
    return Status::IOError("truncated '" + std::string(key) + "' section in " +
                           context);
  }
  return Status::OK();
}

void EmitRawSection(std::string* out, const char* key,
                    const std::string& payload) {
  *out += key;
  *out += ' ';
  *out += std::to_string(payload.size());
  *out += '\n';
  *out += payload;
  *out += '\n';
}

}  // namespace

Result<std::shared_ptr<const AlignmentIndex>> AlignmentIndex::Build(
    const GAlignConfig& config, const AttributedGraph& source,
    const AttributedGraph& target, const AlignmentIndexOptions& options,
    const RunContext& ctx) {
  if (options.anchor_k <= 0) {
    return Status::InvalidArgument("AlignmentIndex::Build: anchor_k must be > 0");
  }

  // The artifact holds Alg. 1's trained layers: a build never refines.
  GAlignConfig train_config = config;
  train_config.use_refinement = false;
  TrainedEmbeddings trained;
  GALIGN_RETURN_NOT_OK(TrainAndEmbed(train_config, source, target,
                                     Supervision{}, ctx,
                                     /*materialize=*/false, /*ann=*/nullptr,
                                     &trained));
  if (ctx.ShouldStop()) {
    return Status::DeadlineExceeded(
        "AlignmentIndex::Build stopped during training — refusing to emit a "
        "partial artifact");
  }

  // The artifact keeps the trained model itself so a reload can verify (or
  // re-derive) everything downstream of it.
  std::shared_ptr<AlignmentIndex> out(new AlignmentIndex());
  out->gcn_ = std::move(trained.model);
  out->source_layers_ = std::move(trained.source_layers);
  out->target_layers_ = std::move(trained.target_layers);
  out->theta_ = config.EffectiveLayerWeights();

  // Query side carries theta so the multi-order score is one inner product
  // (DESIGN.md §11); base side stays unscaled.
  auto queries =
      ConcatLayerRows(out->source_layers_, &out->theta_, ctx.budget());
  GALIGN_RETURN_NOT_OK(queries.status());
  out->queries_ = std::move(queries.ValueOrDie());
  auto base = ConcatLayerRows(out->target_layers_, nullptr, ctx.budget());
  GALIGN_RETURN_NOT_OK(base.status());

  auto ann = BuildAnnIndex(std::move(base.ValueOrDie()), options.ann, ctx);
  GALIGN_RETURN_NOT_OK(ann.status());
  out->ann_ = std::move(ann.ValueOrDie());
  if (out->ann_->truncated()) {
    return Status::DeadlineExceeded(
        "AlignmentIndex::Build stopped during ANN construction — refusing to "
        "emit a partial artifact");
  }
  out->ann_fingerprint_ = AnnIndexFingerprint(*out->ann_);

  const int64_t k = std::min(options.anchor_k, target.num_nodes());
  auto anchors = out->ann_->QueryBatch(out->queries_, std::max<int64_t>(1, k),
                                       ctx);
  GALIGN_RETURN_NOT_OK(anchors.status());
  out->anchors_ = std::move(anchors.ValueOrDie());
  if (out->anchors_.rows_computed < out->anchors_.rows) {
    return Status::DeadlineExceeded(
        "AlignmentIndex::Build stopped during anchor precomputation — "
        "refusing to emit a partial artifact");
  }
  return Result<std::shared_ptr<const AlignmentIndex>>(std::move(out));
}

uint64_t AlignmentIndex::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const Matrix& m : source_layers_) bytes += DenseBytes(m.rows(), m.cols());
  for (const Matrix& m : target_layers_) bytes += DenseBytes(m.rows(), m.cols());
  bytes += DenseBytes(queries_.rows(), queries_.cols());
  bytes += ann_->MemoryBytes();
  bytes += anchors_.index.size() * sizeof(int64_t) +
           anchors_.score.size() * sizeof(double);
  return bytes;
}

std::string AlignmentIndex::Serialize() const {
  const std::string model = SerializeGcnModel(*gcn_);
  const std::string recipe = SerializeAnnRecipe(*ann_);
  const size_t slots = anchors_.index.size();
  std::string out;
  // Room for every section (an anchor id takes at most 20 digits and a
  // separator) plus the CRC trailer the store appends, so neither the
  // writer nor the framing ever reallocates.
  out.reserve(256 + 17 * theta_.size() + model.size() + recipe.size() +
              MatrixListBytes(source_layers_) +
              MatrixListBytes(target_layers_) + 21 * slots +
              17 * anchors_.score.size());
  out += kArtifactMagic;
  out += "\ntheta ";
  out += std::to_string(theta_.size());
  for (double t : theta_) {
    out += ' ';
    out += HexDouble(t);
  }
  out += '\n';
  EmitRawSection(&out, "model", model);
  EmitMatrixList(&out, "source_layers", source_layers_);
  EmitMatrixList(&out, "target_layers", target_layers_);
  EmitRawSection(&out, "ann", recipe);
  out += "anchors " + std::to_string(anchors_.rows) + " " +
         std::to_string(anchors_.cols) + " " + std::to_string(anchors_.k) +
         " " + std::to_string(anchors_.rows_computed) + "\n";
  for (size_t i = 0; i < slots; ++i) {
    if (i) out += i % 16 == 0 ? '\n' : ' ';
    out += std::to_string(anchors_.index[i]);
  }
  if (slots) out += '\n';
  AppendHexDoubles(&out, anchors_.score.data(), anchors_.score.size(), 8);
  out += "end\n";
  return out;
}

Result<std::shared_ptr<const AlignmentIndex>> AlignmentIndex::Parse(
    const std::string& payload, const std::string& context,
    const RunContext& ctx) {
  TextCursor in(payload);
  if (!in.Expect(kArtifactMagic)) {
    return Status::IOError("not an alignment artifact (bad magic) in " +
                           context);
  }

  std::shared_ptr<AlignmentIndex> out(new AlignmentIndex());

  int64_t theta_count = 0;
  if (!in.Expect("theta") || !in.Int64(&theta_count) || theta_count <= 0 ||
      theta_count > 4096) {
    return Status::IOError("expected 'theta <count>' in " + context);
  }
  out->theta_.resize(static_cast<size_t>(theta_count));
  GALIGN_RETURN_NOT_OK(
      in.HexDoubles(out->theta_.data(), out->theta_.size(), "theta", context));

  std::string_view model_payload;
  GALIGN_RETURN_NOT_OK(ReadRawSection(&in, "model", &model_payload, context));
  auto gcn = ParseGcnModel(std::string(model_payload),
                           context + " model section");
  GALIGN_RETURN_NOT_OK(gcn.status());
  out->gcn_ = std::make_unique<MultiOrderGcn>(std::move(gcn.ValueOrDie()));

  GALIGN_RETURN_NOT_OK(
      ParseMatrixList(&in, "source_layers", &out->source_layers_, context));
  GALIGN_RETURN_NOT_OK(
      ParseMatrixList(&in, "target_layers", &out->target_layers_, context));
  const size_t layer_count = static_cast<size_t>(theta_count);
  if (out->source_layers_.size() != layer_count ||
      out->target_layers_.size() != layer_count) {
    return Status::IOError(
        "layer count disagrees with theta width in " + context + ": theta " +
        std::to_string(theta_count) + ", source " +
        std::to_string(out->source_layers_.size()) + ", target " +
        std::to_string(out->target_layers_.size()));
  }
  // Queries name a source row and are answered with target rows, so an
  // artifact without rows on either side has nothing to serve (and swap
  // validation spot-checks source rows).
  const std::pair<const char*, const std::vector<Matrix>*> sides[] = {
      {"source_layers", &out->source_layers_},
      {"target_layers", &out->target_layers_}};
  for (const auto& [key, layers] : sides) {
    for (const Matrix& m : *layers) {
      if (m.rows() == 0) {
        return Status::IOError("'" + std::string(key) +
                               "' section has zero rows in " + context);
      }
    }
  }

  std::string_view ann_payload;
  GALIGN_RETURN_NOT_OK(ReadRawSection(&in, "ann", &ann_payload, context));

  TopKAlignment& a = out->anchors_;
  if (!in.Expect("anchors") || !in.Int64(&a.rows) || !in.Int64(&a.cols) ||
      !in.Int64(&a.k) || !in.Int64(&a.rows_computed) || a.rows < 0 ||
      a.cols < 0 || a.k < 0 || a.rows_computed != a.rows ||
      a.rows > (int64_t{1} << 30) || a.k > (int64_t{1} << 20) ||
      a.rows * a.k > (int64_t{1} << 32)) {
    return Status::IOError("bad 'anchors' header in " + context);
  }
  // Each slot holds an id (a digit and a separator at least) and a
  // 16-digit score, so the bytes left bound the table before it is sized.
  const int64_t anchor_slots = a.rows * a.k;
  if (!in.Fits(static_cast<uint64_t>(anchor_slots), 2 + 16)) {
    return Status::IOError(
        "'anchors' header declares " + std::to_string(a.rows) + "x" +
        std::to_string(a.k) + " slots but only " +
        std::to_string(in.remaining()) + " bytes remain in " + context);
  }
  a.index.resize(static_cast<size_t>(anchor_slots));
  a.score.resize(static_cast<size_t>(anchor_slots));
  for (int64_t& id : a.index) {
    if (!in.Int64(&id) || id < -1 || id >= a.cols) {
      return Status::IOError("bad anchor index in " + context);
    }
  }
  GALIGN_RETURN_NOT_OK(in.HexDoubles(a.score.data(), a.score.size(),
                                     "anchor scores", context));
  if (!in.Expect("end")) {
    return Status::IOError("missing 'end' sentinel in " + context);
  }

  // Derived state: rebuild the query matrix and the ANN index from the
  // stored layers. The recipe's fingerprint check makes the rebuilt index
  // verify-or-reject against the one that was saved.
  auto queries =
      ConcatLayerRows(out->source_layers_, &out->theta_, ctx.budget());
  GALIGN_RETURN_NOT_OK(queries.status());
  out->queries_ = std::move(queries.ValueOrDie());
  auto base = ConcatLayerRows(out->target_layers_, nullptr, ctx.budget());
  GALIGN_RETURN_NOT_OK(base.status());
  auto ann = RebuildAnnIndex(std::string(ann_payload),
                             std::move(base.ValueOrDie()), ctx,
                             context + " ann section");
  GALIGN_RETURN_NOT_OK(ann.status());
  out->ann_ = std::move(ann.ValueOrDie());
  // RebuildAnnIndex verified the rebuilt index against the recipe's saved
  // fingerprint, so recomputing here records the proven-good value.
  out->ann_fingerprint_ = AnnIndexFingerprint(*out->ann_);
  if (out->anchors_.rows != out->queries_.rows() ||
      out->anchors_.cols != out->ann_->base().rows()) {
    return Status::IOError("anchor table shape disagrees with embeddings in " +
                           context);
  }
  return Result<std::shared_ptr<const AlignmentIndex>>(std::move(out));
}

AlignmentIndexStore::AlignmentIndexStore(std::string dir, int keep)
    : dir_(std::move(dir)), keep_(keep < 1 ? 1 : keep) {}

std::string AlignmentIndexStore::ManifestPath() const {
  return dir_ + "/" + kManifestName;
}

int AlignmentIndexStore::NewestGeneration() const {
  int newest = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    newest = std::max(newest,
                      GenerationOfFileName(entry.path().filename().string()));
  }
  return newest;
}

std::string AlignmentIndexStore::GenerationPath(int gen) const {
  return dir_ + "/" + GenerationFileName(gen);
}

Status AlignmentIndexStore::Save(const AlignmentIndex& index) {
  if (fault::ShouldFailIO("serve.artifact.save")) {
    return Status::IOError("injected fault: artifact save to " + dir_);
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create artifact dir " + dir_ + ": " +
                           ec.message());
  }

  const std::string name = GenerationFileName(NewestGeneration() + 1);
  GALIGN_RETURN_NOT_OK(AtomicWriteFile(
      dir_ + "/" + name, AppendCrc32Trailer(index.Serialize())));
  return ApplyRetention();
}

Status AlignmentIndexStore::ApplyRetention() {
  auto report = ApplyGenerationRetention(dir_, kManifestMagic,
                                         GenerationOfFileName, keep_,
                                         pinned_.load());
  GALIGN_RETURN_NOT_OK(report.status());
  for (const std::string& torn : report.ValueOrDie().torn_removed) {
    GALIGN_LOG(Warning) << "Artifact " << dir_ << "/" << torn
                        << " failed its CRC; garbage-collected";
  }
  return Status::OK();
}

std::vector<std::string> AlignmentIndexStore::Candidates() const {
  auto content = ReadFileToString(ManifestPath());
  if (content.ok()) {
    auto payload = StripAndVerifyCrc32Trailer(
        content.ValueOrDie(), /*require_trailer=*/true, ManifestPath());
    if (payload.ok()) {
      std::istringstream in(payload.ValueOrDie());
      std::string tok;
      if (in >> tok && tok == kManifestMagic) {
        std::vector<std::string> names;
        while (in >> tok) {
          if (GenerationOfFileName(tok) >= 1) names.push_back(tok);
        }
        if (!names.empty()) return names;
      }
    } else {
      GALIGN_LOG(Warning) << "Artifact manifest unreadable ("
                          << payload.status().message()
                          << "); falling back to directory scan";
    }
  }
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string fname = entry.path().filename().string();
    if (GenerationOfFileName(fname) >= 1) names.push_back(fname);
  }
  std::sort(names.begin(), names.end(), [](const auto& a, const auto& b) {
    return GenerationOfFileName(a) > GenerationOfFileName(b);
  });
  return names;
}

Result<std::shared_ptr<const AlignmentIndex>>
AlignmentIndexStore::LoadGeneration(int gen, const RunContext& ctx) const {
  const std::string path = GenerationPath(gen);
  if (fault::ShouldFailIO("serve.artifact.load")) {
    return Status::IOError("injected fault: artifact load from " + path);
  }
  auto content = ReadFileToString(path);
  if (!content.ok()) {
    return Status::NotFound("artifact generation " + std::to_string(gen) +
                            " unreadable: " +
                            std::string(content.status().message()));
  }
  auto payload = StripAndVerifyCrc32Trailer(content.MoveValueOrDie(),
                                            /*require_trailer=*/true, path);
  GALIGN_RETURN_NOT_OK(payload.status());
  return AlignmentIndex::Parse(payload.ValueOrDie(), path, ctx);
}

Result<std::shared_ptr<const AlignmentIndex>> AlignmentIndexStore::LoadLatest(
    const RunContext& ctx, int* loaded_generation) const {
  // Same typed terminal contract as CheckpointManager::LoadLatest: NotFound
  // is a cold start, IOError means every published generation was lost.
  int tried = 0;
  std::string newest_error;
  auto note = [&](const std::string& msg) {
    if (tried == 1) newest_error = msg;
  };
  for (const std::string& name : Candidates()) {
    const std::string path = dir_ + "/" + name;
    ++tried;
    if (fault::ShouldFailIO("serve.artifact.load")) {
      GALIGN_LOG(Warning) << "Artifact " << path
                          << " unreadable (injected fault); trying previous";
      note("injected fault: artifact load from " + path);
      continue;
    }
    auto content = ReadFileToString(path);
    if (!content.ok()) {
      GALIGN_LOG(Warning) << "Artifact " << path << " unreadable ("
                          << content.status().message() << "); trying previous";
      note(content.status().message());
      continue;
    }
    auto payload = StripAndVerifyCrc32Trailer(content.MoveValueOrDie(),
                                              /*require_trailer=*/true, path);
    if (!payload.ok()) {
      GALIGN_LOG(Warning) << "Artifact " << path << " failed validation ("
                          << payload.status().message() << "); trying previous";
      note(payload.status().message());
      continue;
    }
    auto index = AlignmentIndex::Parse(payload.ValueOrDie(), path, ctx);
    if (!index.ok()) {
      GALIGN_LOG(Warning) << "Artifact " << path << " corrupt ("
                          << index.status().message() << "); trying previous";
      note(index.status().message());
      continue;
    }
    // This generation is the one callers will serve from: pin it so
    // retention never deletes the artifact a live deployment depends on.
    const int gen = GenerationOfFileName(name);
    pinned_.store(gen);
    if (loaded_generation != nullptr) *loaded_generation = gen;
    return index;
  }
  if (tried > 0) {
    return Status::IOError("all " + std::to_string(tried) +
                           " artifact generations under " + dir_ +
                           " failed validation (newest error: " +
                           newest_error + ")");
  }
  return Status::NotFound("no alignment artifact under " + dir_);
}

}  // namespace galign
