#include "core/galign.h"

#include <algorithm>
#include <utility>

#include "core/refinement.h"
#include "graph/ann/ann.h"

namespace galign {

Status TrainAndEmbed(const GAlignConfig& config,
                     const AttributedGraph& source,
                     const AttributedGraph& target,
                     const Supervision& supervision, const RunContext& ctx,
                     bool materialize, const AnnPolicy* ann,
                     TrainedEmbeddings* out) {
  *out = TrainedEmbeddings();
  GALIGN_RETURN_NOT_OK(config.Validate());
  if (source.num_nodes() == 0 || target.num_nodes() == 0) {
    return Status::InvalidArgument("empty network");
  }
  if (source.num_attributes() != target.num_attributes()) {
    return Status::InvalidArgument(
        "GAlign requires equal attribute dimensionality");
  }

  Rng rng(config.seed);
  out->model = std::make_unique<MultiOrderGcn>(
      config.num_layers, source.num_attributes(), config.embedding_dim, &rng);
  Trainer trainer(config);
  // The paper's model is fully unsupervised and ignores supervision; seeds
  // only enter training when the semi-supervised extension is enabled
  // (seed_loss_weight > 0).
  const auto& seeds = config.seed_loss_weight > 0.0
                          ? supervision.seeds
                          : std::vector<std::pair<int64_t, int64_t>>{};
  const Status trained =
      trainer.Train(out->model.get(), source, target, &rng, seeds, ctx);
  out->loss_history = trainer.loss_history();
  out->report = trainer.report();
  GALIGN_RETURN_NOT_OK(trained);

  if (config.use_refinement) {
    auto refined = RefineAlignment(*out->model, source, target, config, ctx,
                                   materialize, ann);
    GALIGN_RETURN_NOT_OK(refined.status());
    RefinementResult& r = refined.ValueOrDie();
    out->refinement_scores = std::move(r.score_history);
    out->source_layers = std::move(r.source_embeddings);
    out->target_layers = std::move(r.target_embeddings);
    out->alignment = std::move(r.alignment);
    return Status::OK();
  }

  // GAlign-2 path: the trained embeddings, aggregated directly (Eq. 12).
  auto lap_s = source.NormalizedAdjacency();
  GALIGN_RETURN_NOT_OK(lap_s.status());
  auto lap_t = target.NormalizedAdjacency();
  GALIGN_RETURN_NOT_OK(lap_t.status());
  out->source_layers =
      out->model->ForwardInference(lap_s.ValueOrDie(), source.attributes());
  out->target_layers =
      out->model->ForwardInference(lap_t.ValueOrDie(), target.attributes());
  if (materialize) {
    out->alignment = AggregateAlignment(out->source_layers, out->target_layers,
                                        config.EffectiveLayerWeights());
  }
  return Status::OK();
}

void GAlignAligner::RecordLastRun(TrainedEmbeddings* run) {
  last_loss_history_ = std::move(run->loss_history);
  last_refinement_scores_ = std::move(run->refinement_scores);
  last_train_report_ = std::move(run->report);
}

Result<Matrix> GAlignAligner::Align(const AttributedGraph& source,
                                    const AttributedGraph& target,
                                    const Supervision& supervision,
                                    const RunContext& ctx) {
  TrainedEmbeddings run;
  RecordLastRun(&run);  // forget the previous call
  MemoryScope admission;
  GALIGN_RETURN_NOT_OK(
      ReserveAlignerBudget(*this, source, target, ctx, &admission));
  const Status status = TrainAndEmbed(config_, source, target, supervision,
                                      ctx, /*materialize=*/true,
                                      /*ann=*/nullptr, &run);
  RecordLastRun(&run);
  GALIGN_RETURN_NOT_OK(status);
  return std::move(run.alignment);
}

uint64_t GAlignAligner::EstimateTrainBytes(int64_t n_source, int64_t n_target,
                                           int64_t dims) const {
  const int64_t d = std::max<int64_t>(config_.embedding_dim, dims);
  const int64_t layers = config_.num_layers + 1;
  // One set of per-layer embeddings for both networks.
  const uint64_t embeds = DenseBytes(n_source + n_target, d) *
                          static_cast<uint64_t>(layers);
  // Each training step embeds every (possibly augmented) view with forward
  // activations, gradients, and Adam moments alive together; refinement
  // keeps current + best embedding sets plus two scan chunks.
  const uint64_t views =
      config_.use_augmentation
          ? static_cast<uint64_t>(1 + config_.num_augmentations)
          : 1;
  return 4 * views * embeds + 4 * embeds + 2 * DenseBytes(512, n_target);
}

uint64_t GAlignAligner::EstimatePeakBytes(int64_t n_source, int64_t n_target,
                                          int64_t dims) const {
  return EstimateTrainBytes(n_source, n_target, dims) +
         DenseBytes(n_source, n_target);
}

Result<TopKAlignment> GAlignAligner::AlignTopK(const AttributedGraph& source,
                                               const AttributedGraph& target,
                                               const Supervision& supervision,
                                               const RunContext& ctx,
                                               int64_t k) {
  TrainedEmbeddings run;
  RecordLastRun(&run);  // forget the previous call
  // Admit only the training/refinement working set — this path never
  // materializes the n1 x n2 aggregation the dense estimate includes.
  MemoryScope train_scope;
  if (ctx.HasMemoryLimit()) {
    GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(
        ctx.budget(),
        EstimateTrainBytes(source.num_nodes(), target.num_nodes(),
                           source.num_attributes()),
        name_ + " training admission", &train_scope));
  }
  const Status status = TrainAndEmbed(config_, source, target, supervision,
                                      ctx, /*materialize=*/false,
                                      &ann_policy_, &run);
  RecordLastRun(&run);
  GALIGN_RETURN_NOT_OK(status);
  const std::vector<Matrix>& hs = run.source_layers;
  const std::vector<Matrix>& ht = run.target_layers;

  // Training transients are gone; re-reserve only the surviving embeddings
  // so the chunked scan sizes its block from the true remaining headroom.
  train_scope.reset();
  MemoryScope embed_scope;
  if (ctx.HasMemoryLimit()) {
    uint64_t live = 0;
    for (const Matrix& h : hs) live += DenseBytes(h.rows(), h.cols());
    for (const Matrix& h : ht) live += DenseBytes(h.rows(), h.cols());
    GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(
        ctx.budget(), live, name_ + " refined embeddings", &embed_scope));
  }
  const std::vector<double> theta = config_.EffectiveLayerWeights();
  if (ShouldUseAnn(ann_policy_, source.num_nodes(), target.num_nodes())) {
    return AnnEmbeddingTopK(hs, ht, theta, k, ann_policy_, ctx);
  }
  return ChunkedEmbeddingTopK(hs, ht, theta, k, ctx);
}

GAlignConfig GAlignAligner::WithoutAugmentation(GAlignConfig base) {
  base.use_augmentation = false;
  return base;
}

GAlignConfig GAlignAligner::WithoutRefinement(GAlignConfig base) {
  base.use_refinement = false;
  return base;
}

GAlignConfig GAlignAligner::FinalLayerOnly(GAlignConfig base) {
  base.final_layer_only = true;
  return base;
}

}  // namespace galign
