#include "serve/alignment_index.h"

#include <algorithm>
#include <utility>

#include "common/durable_io.h"
#include "common/fault.h"
#include "core/galign.h"
#include "core/model_io.h"
#include "graph/ann/ann.h"
#include "graph/ann/ann_io.h"

namespace galign {

namespace {

constexpr char kArtifactMagic[] = "galign-aidx-v1";

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
    : store_(std::move(dir), "aidx_", "galign-aidx-manifest-v1", "artifact",
             keep) {}

Status AlignmentIndexStore::Save(const AlignmentIndex& index) {
  const int gen = store_.Newest() + 1;
  if (fault::ShouldFailIO("serve.artifact.save")) {
    return Status::IOError("injected fault: artifact save to " +
                           store_.Path(gen));
  }
  return store_.Write(gen, index.Serialize());
}

Result<std::shared_ptr<const AlignmentIndex>>
AlignmentIndexStore::LoadGeneration(int gen, const RunContext& ctx) const {
  const std::string path = store_.Path(gen);
  if (fault::ShouldFailIO("serve.artifact.load")) {
    return Status::IOError("injected fault: artifact load from " + path);
  }
  auto payload = store_.ReadPayload(gen);
  GALIGN_RETURN_NOT_OK(payload.status());
  return AlignmentIndex::Parse(payload.ValueOrDie(), path, ctx);
}

Result<std::shared_ptr<const AlignmentIndex>> AlignmentIndexStore::LoadLatest(
    const RunContext& ctx, int* loaded_generation) const {
  std::shared_ptr<const AlignmentIndex> out;
  GALIGN_RETURN_NOT_OK(store_.LoadLatest(
      [&](int gen) -> Status {
        auto index = LoadGeneration(gen, ctx);
        GALIGN_RETURN_NOT_OK(index.status());
        out = index.MoveValueOrDie();
        return Status::OK();
      },
      loaded_generation));
  return Result<std::shared_ptr<const AlignmentIndex>>(std::move(out));
}

}  // namespace galign
