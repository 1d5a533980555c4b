#include "core/trainer.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "common/fault.h"
#include "common/logging.h"
#include "core/checkpoint.h"
#include "core/losses.h"

namespace galign {

namespace {

// True when the checkpointed shapes can be poured back into the live model
// (same layer count, same per-layer shapes for weights and both moments).
bool CheckpointMatchesModel(const TrainerCheckpoint& ckpt,
                            const std::vector<Matrix*>& params) {
  if (ckpt.weights.size() != params.size() ||
      ckpt.snapshot.size() != params.size() ||
      ckpt.adam_m.size() != params.size() ||
      ckpt.adam_v.size() != params.size()) {
    return false;
  }
  for (size_t i = 0; i < params.size(); ++i) {
    if (!ckpt.weights[i].SameShape(*params[i]) ||
        !ckpt.snapshot[i].SameShape(*params[i]) ||
        !ckpt.adam_m[i].SameShape(*params[i]) ||
        !ckpt.adam_v[i].SameShape(*params[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status Trainer::Train(MultiOrderGcn* gcn, const AttributedGraph& source,
                      const AttributedGraph& target, Rng* rng,
                      const std::vector<std::pair<int64_t, int64_t>>& seeds,
                      const RunContext& ctx) {
  if (source.num_attributes() != target.num_attributes()) {
    return Status::InvalidArgument(
        "source/target attribute dimensions differ (" +
        std::to_string(source.num_attributes()) + " vs " +
        std::to_string(target.num_attributes()) + ")");
  }
  if (gcn->input_dim() != source.num_attributes()) {
    return Status::InvalidArgument("GCN input dim != attribute dim");
  }
  for (const auto& [v, u] : seeds) {
    if (v < 0 || v >= source.num_nodes() || u < 0 || u >= target.num_nodes()) {
      return Status::InvalidArgument("seed anchor out of range");
    }
  }

  auto lap_s_result = source.NormalizedAdjacency();
  GALIGN_RETURN_NOT_OK(lap_s_result.status());
  auto lap_t_result = target.NormalizedAdjacency();
  GALIGN_RETURN_NOT_OK(lap_t_result.status());
  const SparseMatrix lap_s = lap_s_result.MoveValueOrDie();
  const SparseMatrix lap_t = lap_t_result.MoveValueOrDie();

  // Alg. 1 lines 4-5: augmented copies are built once up front.
  std::vector<AugmentedNetwork> aug_s, aug_t;
  if (config_.use_augmentation && config_.num_augmentations > 0) {
    auto rs = MakeAugmentations(source, config_, rng);
    GALIGN_RETURN_NOT_OK(rs.status());
    aug_s = rs.MoveValueOrDie();
    auto rt = MakeAugmentations(target, config_, rng);
    GALIGN_RETURN_NOT_OK(rt.status());
    aug_t = rt.MoveValueOrDie();
  }

  // Layer 1's input C normalize(F) does not change across epochs for any of
  // the graphs: compute it once here and feed it to every epoch's forward as
  // a constant operand (MultiOrderGcn::ForwardFromInput), in CSR when it is
  // sparse enough (LayerInput).
  const LayerInput input_s =
      MultiOrderGcn::PropagatedInput(lap_s, source.attributes());
  const LayerInput input_t =
      MultiOrderGcn::PropagatedInput(lap_t, target.attributes());
  auto propagated_inputs = [](const std::vector<AugmentedNetwork>& augs) {
    std::vector<LayerInput> inputs;
    inputs.reserve(augs.size());
    for (const AugmentedNetwork& a : augs) {
      inputs.push_back(MultiOrderGcn::PropagatedInput(a.laplacian,
                                                      a.graph.attributes()));
    }
    return inputs;
  };
  const std::vector<LayerInput> aug_inputs_s = propagated_inputs(aug_s);
  const std::vector<LayerInput> aug_inputs_t = propagated_inputs(aug_t);

  AdamOptimizer adam({.lr = config_.learning_rate});
  std::vector<Matrix*> params;
  for (Matrix& w : gcn->weights()) params.push_back(&w);
  adam.Register(params);

  loss_history_.clear();
  loss_history_.reserve(config_.epochs);
  report_ = TrainReport{};
  report_.final_lr = config_.learning_rate;
  double best_loss = std::numeric_limits<double>::infinity();
  int epochs_without_improvement = 0;

  // Rollback target: the weights of the best healthy epoch so far (the
  // initial weights until one completes).
  std::vector<Matrix> snapshot = gcn->weights();
  double snapshot_loss = std::numeric_limits<double>::infinity();

  // Crash safety (DESIGN.md §8): restore the full mid-run state from the
  // newest valid checkpoint. Anything that prevents the restore — no
  // checkpoint yet, all copies corrupt, a config change that altered the
  // model shape — degrades to a fresh start; resume is an optimization, not
  // a correctness requirement. One manager restores and saves, so the
  // epoch the restore pins reaches every later save's retention pass.
  CheckpointManager checkpointer(config_.checkpoint_dir);
  int start_epoch = 0;
  if (config_.resume_from_checkpoint && !config_.checkpoint_dir.empty()) {
    auto loaded = checkpointer.LoadLatest();  // galign-lint: allow(context-dropped): CheckpointManager::LoadLatest is ctx-free by design (bounded startup restore); the flagged name is serve's ArtifactStore::LoadLatest(ctx)
    if (loaded.ok()) {
      TrainerCheckpoint& ckpt = loaded.ValueOrDie();
      if (!CheckpointMatchesModel(ckpt, params)) {
        GALIGN_LOG(Warning)
            << "Trainer: checkpoint under " << config_.checkpoint_dir
            << " does not match the model shape; starting fresh";
      } else {
        for (size_t i = 0; i < params.size(); ++i) {
          *params[i] = ckpt.weights[i];
        }
        adam.RestoreState(ckpt.adam_step, std::move(ckpt.adam_m),
                          std::move(ckpt.adam_v));
        adam.set_lr(ckpt.lr);
        snapshot = std::move(ckpt.snapshot);
        snapshot_loss = ckpt.snapshot_loss;
        best_loss = ckpt.best_loss;
        epochs_without_improvement = ckpt.epochs_without_improvement;
        loss_history_ = std::move(ckpt.loss_history);
        report_.epochs_run = ckpt.epochs_run;
        report_.steps_applied = ckpt.steps_applied;
        report_.rollbacks = ckpt.rollbacks;
        report_.rollback_epochs = std::move(ckpt.rollback_epochs);
        report_.final_lr = ckpt.final_lr;
        report_.final_loss = ckpt.final_loss;
        if (!ckpt.rng_state.empty()) {
          std::istringstream rs(ckpt.rng_state);
          rs >> rng->engine();
        }
        start_epoch = ckpt.epoch;
        report_.resumed = true;
        report_.resume_epoch = start_epoch;
        GALIGN_LOG(Info) << "Trainer: resumed from checkpoint at epoch "
                         << start_epoch << " (loss "
                         << report_.final_loss << ") under "
                         << config_.checkpoint_dir;
      }
    } else if (loaded.status().code() == StatusCode::kNotFound) {
      GALIGN_LOG(Info) << "Trainer: no checkpoint under "
                       << config_.checkpoint_dir << "; starting fresh";
    } else {
      GALIGN_LOG(Warning) << "Trainer: checkpoint restore failed ("
                          << loaded.status().message()
                          << "); starting fresh";
    }
  }

  // On a divergence event: restore the snapshot, drop contaminated Adam
  // moments, decay the learning rate. Returns NotConverged once the retry
  // budget is spent.
  auto rollback = [&](int epoch, const std::string& why) -> Status {
    ++report_.rollbacks;
    report_.rollback_epochs.push_back(epoch);
    if (report_.rollbacks > config_.max_rollbacks) {
      report_.diverged = true;
      return Status::NotConverged(
          "training diverged at epoch " + std::to_string(epoch) + " (" + why +
          ") after exhausting " + std::to_string(config_.max_rollbacks) +
          " rollback(s)");
    }
    for (size_t i = 0; i < params.size(); ++i) *params[i] = snapshot[i];
    adam.Reset();
    const double lr = adam.options().lr * config_.rollback_lr_decay;
    adam.set_lr(lr);
    report_.final_lr = lr;
    GALIGN_LOG(Warning) << "Trainer: " << why << " at epoch " << epoch
                        << "; rolled back to best snapshot (loss="
                        << snapshot_loss << "), lr decayed to " << lr << " ("
                        << report_.rollbacks << "/" << config_.max_rollbacks
                        << " rollbacks)";
    return Status::OK();
  };

  auto forward_augments =
      [&](Tape* tape, const std::vector<AugmentedNetwork>& augs,
          const std::vector<LayerInput>& inputs,
          const std::vector<Var>& weight_vars,
          std::vector<std::vector<Var>>* layer_sets,
          std::vector<const std::vector<int64_t>*>* correspondences) {
        for (size_t i = 0; i < augs.size(); ++i) {
          layer_sets->push_back(gcn->ForwardFromInput(
              tape, &augs[i].laplacian, &inputs[i], weight_vars));
          correspondences->push_back(&augs[i].correspondence);
        }
      };

  // Persists the state as of the END of `epoch` (resume restarts at
  // epoch + 1). Failures are logged, never fatal: losing a checkpoint must
  // not take down a healthy training run, and the previous durable copy is
  // untouched by a failed save.
  auto maybe_checkpoint = [&](int epoch) {
    if (config_.checkpoint_dir.empty()) return;
    const bool cadence = (epoch + 1) % config_.checkpoint_every == 0;
    const bool last = epoch + 1 == config_.epochs;
    if (!cadence && !last) return;
    TrainerCheckpoint ckpt;
    ckpt.epoch = epoch + 1;
    ckpt.lr = adam.options().lr;
    ckpt.adam_step = adam.step_count();
    for (const Matrix* p : params) ckpt.weights.push_back(*p);
    ckpt.adam_m = adam.first_moments();
    ckpt.adam_v = adam.second_moments();
    ckpt.snapshot = snapshot;
    ckpt.snapshot_loss = snapshot_loss;
    ckpt.best_loss = best_loss;
    ckpt.epochs_without_improvement = epochs_without_improvement;
    ckpt.loss_history = loss_history_;
    ckpt.epochs_run = report_.epochs_run;
    ckpt.steps_applied = report_.steps_applied;
    ckpt.rollbacks = report_.rollbacks;
    ckpt.rollback_epochs = report_.rollback_epochs;
    ckpt.final_lr = report_.final_lr;
    ckpt.final_loss = report_.final_loss;
    {
      std::ostringstream rs;
      rs << rng->engine();
      ckpt.rng_state = rs.str();
    }
    Status st = checkpointer.Save(ckpt);
    if (st.ok()) {
      ++report_.checkpoints_written;
    } else {
      GALIGN_LOG(Warning) << "Trainer: checkpoint save at epoch " << epoch
                          << " failed (" << st.message()
                          << "); training continues";
    }
  };

  for (int epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    // Cooperative cancellation: wind down with the best-so-far weights
    // before spending another forward/backward pass.
    if (ctx.ShouldStop()) {
      report_.deadline_exceeded = ctx.DeadlineExceeded();
      report_.cancelled = ctx.Cancelled();
      GALIGN_LOG(Info) << "Trainer: stopping at epoch " << epoch << " ("
                       << (report_.cancelled ? "cancelled"
                                             : "deadline exceeded")
                       << "); returning best-so-far weights";
      break;
    }
    Tape tape;
    std::vector<Var> weight_vars = gcn->MakeWeightLeaves(&tape);
    std::vector<Var> hs =
        gcn->ForwardFromInput(&tape, &lap_s, &input_s, weight_vars);
    std::vector<Var> ht =
        gcn->ForwardFromInput(&tape, &lap_t, &input_t, weight_vars);

    std::vector<std::vector<Var>> aug_layers_s, aug_layers_t;
    std::vector<const std::vector<int64_t>*> corr_s, corr_t;
    forward_augments(&tape, aug_s, aug_inputs_s, weight_vars, &aug_layers_s,
                     &corr_s);
    forward_augments(&tape, aug_t, aug_inputs_t, weight_vars, &aug_layers_t,
                     &corr_t);

    // Alg. 1 lines 11-12: the loss is evaluated for G_s and G_t only; the
    // augmented embeddings participate through the adaptivity terms.
    Var loss_s =
        NetworkLoss(&tape, &lap_s, hs, aug_layers_s, corr_s, config_);
    Var loss_t =
        NetworkLoss(&tape, &lap_t, ht, aug_layers_t, corr_t, config_);
    std::vector<std::pair<Var, double>> terms{{loss_s, 1.0}, {loss_t, 1.0}};
    if (config_.seed_loss_weight > 0.0 && !seeds.empty()) {
      // Semi-supervised extension: pull seed anchor pairs together at every
      // GCN layer.
      for (size_t l = 1; l < hs.size(); ++l) {
        terms.emplace_back(ag::AnchorLoss(&tape, hs[l], ht[l], seeds),
                           config_.seed_loss_weight);
      }
    }
    Var total = ag::WeightedSum(&tape, terms);

    ++report_.epochs_run;
    const double loss_value =
        fault::Perturb("train.loss", tape.value(total)(0, 0));
    if (!std::isfinite(loss_value)) {
      GALIGN_RETURN_NOT_OK(rollback(epoch, "non-finite loss"));
      continue;
    }

    tape.Backward(total);
    if (!weight_vars.empty()) {
      Matrix* g0 = tape.EnsureGrad(weight_vars.front());
      fault::CorruptBuffer("train.grad", g0->data(), g0->size());
    }

    std::vector<const Matrix*> grads;
    grads.reserve(weight_vars.size());
    for (Var w : weight_vars) grads.push_back(&tape.grad(w));

    const GradientHealth health = ProbeGradients(grads);
    if (!health.finite) {
      GALIGN_RETURN_NOT_OK(rollback(epoch, "non-finite gradient"));
      continue;
    }
    if (config_.max_grad_norm > 0.0 && health.norm > config_.max_grad_norm) {
      GALIGN_RETURN_NOT_OK(rollback(
          epoch, "gradient explosion (norm " + std::to_string(health.norm) +
                     " > " + std::to_string(config_.max_grad_norm) + ")"));
      continue;
    }

    adam.Step(params, grads);
    ++report_.steps_applied;

    bool weights_finite = true;
    for (const Matrix* p : params) weights_finite &= p->AllFinite();
    if (!weights_finite) {
      GALIGN_RETURN_NOT_OK(rollback(epoch, "non-finite weights after step"));
      continue;
    }

    loss_history_.push_back(loss_value);
    report_.final_loss = loss_value;
    if (loss_value < snapshot_loss) {
      snapshot_loss = loss_value;
      snapshot = gcn->weights();
    }

    bool early_stop = false;
    if (config_.early_stop_patience > 0) {
      // First epoch always establishes the baseline (inf - tol*inf is NaN).
      const double bar =
          std::isfinite(best_loss)
              ? best_loss - config_.early_stop_tolerance * std::fabs(best_loss)
              : loss_value + 1.0;
      if (loss_value < bar) {
        best_loss = loss_value;
        epochs_without_improvement = 0;
      } else if (++epochs_without_improvement >=
                 config_.early_stop_patience) {
        early_stop = true;
      }
    }

    // Checkpoint AFTER the early-stopping counters are folded in, so a
    // resumed run replays the exact decision state of the original.
    maybe_checkpoint(epoch);
    if (early_stop) break;
  }
  if (report_.recovered()) {
    GALIGN_LOG(Info) << "Trainer recovered from " << report_.rollbacks
                     << " divergence event(s); final loss "
                     << report_.final_loss << ", final lr "
                     << report_.final_lr;
  }
  return Status::OK();
}

}  // namespace galign
