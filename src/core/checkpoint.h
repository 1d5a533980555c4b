// Durable trainer checkpoints (DESIGN.md §8).
//
// A TrainerCheckpoint captures everything Trainer::Train needs to restart
// bit-identical mid-run: GCN weights, Adam moments and step counter, the
// learning rate (post any rollback decay), the divergence-recovery snapshot,
// early-stopping counters, the loss history, the TrainReport so far, and the
// serialized RNG engine state. All floating-point state is stored as raw
// IEEE-754 bit patterns (hex), so a resumed run reproduces the uninterrupted
// run exactly — not merely to within printing precision.
//
// CheckpointManager persists checkpoints through common/durable_io: each
// file is CRC32-stamped and atomically renamed into place, and a versioned
// MANIFEST (newest first) is rewritten the same way. LoadLatest() walks the
// manifest newest-to-oldest and transparently skips torn or corrupt files,
// so a crash mid-save costs at most one checkpoint interval of work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/status.h"
#include "la/matrix.h"

namespace galign {

/// \brief Full mid-training state of one Trainer::Train run.
struct TrainerCheckpoint {
  /// First epoch the resumed loop should execute (one past the last epoch
  /// folded into this state).
  int epoch = 0;

  // Optimizer state.
  double lr = 0.0;
  int64_t adam_step = 0;
  std::vector<Matrix> weights;
  std::vector<Matrix> adam_m;
  std::vector<Matrix> adam_v;

  // Divergence-recovery snapshot (DESIGN.md §7).
  std::vector<Matrix> snapshot;
  double snapshot_loss = 0.0;

  // Early-stopping state.
  double best_loss = 0.0;
  int epochs_without_improvement = 0;

  std::vector<double> loss_history;

  // TrainReport so far (mirrors core/trainer.h fields).
  int epochs_run = 0;
  int steps_applied = 0;
  int rollbacks = 0;
  std::vector<int> rollback_epochs;
  double final_lr = 0.0;
  double final_loss = 0.0;

  /// mt19937_64 state of the caller's Rng, captured via operator<<. Unused
  /// by the paper's training loop (which draws no randomness after the
  /// prelude) but persisted so future stochastic epochs stay resumable.
  std::string rng_state;
};

/// \brief Serializes a checkpoint to its versioned text payload (without
/// the CRC trailer; CheckpointManager adds it on save).
std::string SerializeCheckpoint(const TrainerCheckpoint& ckpt);

/// \brief Parses a checkpoint payload (trailer already stripped). `context`
/// names the source in error messages.
[[nodiscard]] Result<TrainerCheckpoint> ParseCheckpoint(const std::string& payload,
                                          const std::string& context);

/// \brief Writes/reads checkpoints under one directory.
///
/// A GenerationStore (ckpt_<epoch, 8 digits>) plus the checkpoint codec and
/// fault sites. Save() is atomic per-file and applies the shared
/// generation-retention policy (DESIGN.md §13): the `keep` newest CRC-valid
/// checkpoints plus the pinned (last-resumed) epoch survive, torn files are
/// garbage-collected once a valid survivor exists, and the MANIFEST lists
/// survivors newest-first — so long training runs stop growing disk
/// unboundedly. Save failures are surfaced as Status but are safe to treat
/// as non-fatal: an existing older checkpoint is never damaged by a failed
/// newer save.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string dir, int keep = 2);

  /// Durably writes `ckpt` and updates the manifest.
  [[nodiscard]] Status Save(const TrainerCheckpoint& ckpt);

  /// Loads the newest valid checkpoint, falling back past torn/corrupt
  /// files (each skip is logged). Typed terminal failures: NotFound when
  /// the directory holds no checkpoint at all (a normal cold start),
  /// IOError naming the generation count and the newest failure when every
  /// present generation failed validation (durable state was lost). The
  /// returned epoch is pinned so this manager's retention never prunes the
  /// checkpoint a resumed run depends on.
  [[nodiscard]] Result<TrainerCheckpoint> LoadLatest() const;

  /// Last-resumed pinning: epoch `epoch` survives retention regardless of
  /// age. LoadLatest() sets this automatically.
  void SetPinnedEpoch(int epoch) { store_.Pin(epoch); }
  int pinned_epoch() const { return store_.pinned(); }

 private:
  GenerationStore store_;
};

}  // namespace galign
