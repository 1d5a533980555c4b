// Public entry point of the GAlign framework: an Aligner that runs the full
// unsupervised pipeline — multi-order GCN training with augmentation
// (Alg. 1) followed by alignment instantiation and stability refinement
// (Alg. 2). The ablation variants of Table IV are configuration presets.
#pragma once

#include <memory>
#include <string>

#include "align/alignment.h"
#include "core/config.h"
#include "core/gcn.h"
#include "core/trainer.h"

namespace galign {

/// \brief What one train → embed run produced (Alg. 1, then Alg. 2 when the
/// config enables refinement).
struct TrainedEmbeddings {
  /// The trained weight-shared GCN.
  std::unique_ptr<MultiOrderGcn> model;
  TrainReport report;
  /// Per-epoch training loss (see Trainer::loss_history).
  std::vector<double> loss_history;
  /// Per-layer embeddings H^(0)..H^(k) of each network (row-normalized):
  /// Alg. 2's best iterate when config.use_refinement, else the trained
  /// layers.
  std::vector<Matrix> source_layers;
  std::vector<Matrix> target_layers;
  /// Refinement g(S) trajectory (empty without refinement).
  std::vector<double> refinement_scores;
  /// S of those layers (Eq. 12); 0 x 0 unless `materialize` was set.
  Matrix alignment;
};

/// \brief The one train → embed path behind GAlignAligner and
/// AlignmentIndex::Build.
///
/// Validates `config` and the pair, draws the GCN from Rng(config.seed),
/// trains it under `ctx` (supervision seeds only when
/// config.seed_loss_weight > 0), then embeds both networks: through
/// RefineAlignment(…, materialize, ann) when config.use_refinement, else
/// by one inference pass. With `materialize` set, out->alignment holds S.
/// On failure, out->report and out->loss_history still describe whatever
/// training ran.
[[nodiscard]] Status TrainAndEmbed(const GAlignConfig& config,
                                   const AttributedGraph& source,
                                   const AttributedGraph& target,
                                   const Supervision& supervision,
                                   const RunContext& ctx, bool materialize,
                                   const AnnPolicy* ann,
                                   TrainedEmbeddings* out);

/// \brief GAlign: adaptive, fully unsupervised network alignment.
///
/// Usage:
///   GAlignAligner aligner(GAlignConfig{});
///   auto s = aligner.Align(source, target, /*supervision=*/{});
///
/// Supervision is accepted for interface compatibility and ignored — the
/// method is unsupervised (R3).
class GAlignAligner : public Aligner {
 public:
  explicit GAlignAligner(GAlignConfig config = {},
                         std::string name = "GAlign")
      : config_(std::move(config)), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  using Aligner::Align;
  [[nodiscard]] Result<Matrix> Align(const AttributedGraph& source,
                       const AttributedGraph& target,
                       const Supervision& supervision,
                       const RunContext& ctx) override;

  /// Training working set (augmented views, activations, optimizer state)
  /// plus the refinement scan chunks and the final dense aggregation.
  uint64_t EstimatePeakBytes(int64_t n_source, int64_t n_target,
                             int64_t dims) const override;

  /// Budget-degraded run (DESIGN.md §9): trains and refines like Align()
  /// without ever holding an n1 x n2 matrix. Each refinement scan runs in
  /// row chunks, or over ANN candidate pairs (ScanStabilityCandidates) when
  /// ann_policy() admits the problem size; the refined embeddings are then
  /// ranked through AnnEmbeddingTopK or ChunkedEmbeddingTopK the same way.
  [[nodiscard]] Result<TopKAlignment> AlignTopK(const AttributedGraph& source,
                                  const AttributedGraph& target,
                                  const Supervision& supervision,
                                  const RunContext& ctx, int64_t k) override;

  const GAlignConfig& config() const { return config_; }

  // The last_* records describe the most recent Align() or AlignTopK()
  // call. Each call clears them first and fills them even when it fails, so
  // a run whose training gave up reports that (TrainReport::diverged).

  /// Per-epoch training loss.
  const std::vector<double>& last_loss_history() const {
    return last_loss_history_;
  }
  /// Refinement g(S) trajectory (empty when refinement is disabled or did
  /// not finish).
  const std::vector<double>& last_refinement_scores() const {
    return last_refinement_scores_;
  }
  /// Numerical-health record of the training run (epochs, rollbacks, final
  /// loss/lr — see TrainReport).
  const TrainReport& last_train_report() const { return last_train_report_; }

  /// Ablation presets (Table IV).
  static GAlignConfig WithoutAugmentation(GAlignConfig base = {});  // GAlign-1
  static GAlignConfig WithoutRefinement(GAlignConfig base = {});    // GAlign-2
  static GAlignConfig FinalLayerOnly(GAlignConfig base = {});       // GAlign-3

 private:
  /// Peak bytes of the training + refinement phases alone (everything the
  /// chunked AlignTopK path keeps from EstimatePeakBytes).
  uint64_t EstimateTrainBytes(int64_t n_source, int64_t n_target,
                              int64_t dims) const;
  /// Moves `run`'s records into the last_* accessors.
  void RecordLastRun(TrainedEmbeddings* run);

  GAlignConfig config_;
  std::string name_;
  std::vector<double> last_loss_history_;
  std::vector<double> last_refinement_scores_;
  TrainReport last_train_report_;
};

}  // namespace galign
