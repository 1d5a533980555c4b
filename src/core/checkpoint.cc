#include "core/checkpoint.h"

#include <utility>

#include "common/durable_io.h"
#include "common/fault.h"
#include "core/model_io.h"

namespace galign {

namespace {

constexpr char kMagic[] = "galign-ckpt-v1";

// Doubles are stored bit-exactly via common/durable_io.h HexDouble /
// ParseHexDouble; matrix lists go through the shared core/model_io.h
// EmitMatrixList / ParseMatrixList codec.

}  // namespace

std::string SerializeCheckpoint(const TrainerCheckpoint& ckpt) {
  std::string out;
  out.reserve(1024 + 17 * ckpt.loss_history.size() +
              12 * ckpt.rollback_epochs.size() + ckpt.rng_state.size() +
              MatrixListBytes(ckpt.weights) + MatrixListBytes(ckpt.adam_m) +
              MatrixListBytes(ckpt.adam_v) + MatrixListBytes(ckpt.snapshot));
  auto line = [&out](const char* key, const std::string& value) {
    out += key;
    out += ' ';
    out += value;
    out += '\n';
  };
  out += kMagic;
  out += '\n';
  line("epoch", std::to_string(ckpt.epoch));
  line("lr", HexDouble(ckpt.lr));
  line("adam_step", std::to_string(ckpt.adam_step));
  line("snapshot_loss", HexDouble(ckpt.snapshot_loss));
  line("best_loss", HexDouble(ckpt.best_loss));
  line("epochs_without_improvement",
       std::to_string(ckpt.epochs_without_improvement));
  line("epochs_run", std::to_string(ckpt.epochs_run));
  line("steps_applied", std::to_string(ckpt.steps_applied));
  line("rollbacks", std::to_string(ckpt.rollbacks));
  out += "rollback_epochs " + std::to_string(ckpt.rollback_epochs.size());
  for (int e : ckpt.rollback_epochs) {
    out += ' ';
    out += std::to_string(e);
  }
  out += '\n';
  line("final_lr", HexDouble(ckpt.final_lr));
  line("final_loss", HexDouble(ckpt.final_loss));
  out += "loss_history " + std::to_string(ckpt.loss_history.size());
  for (double h : ckpt.loss_history) {
    out += ' ';
    out += HexDouble(h);
  }
  out += '\n';
  // mt19937_64 serializes to whitespace-separated integers; token count is
  // recorded so the parser knows how many to consume.
  {
    TextCursor count_rng(ckpt.rng_state);
    size_t n = 0;
    while (!count_rng.Token().empty()) ++n;
    out += "rng " + std::to_string(n);
    if (n) out += " " + ckpt.rng_state;
    out += '\n';
  }
  EmitMatrixList(&out, "weights", ckpt.weights);
  EmitMatrixList(&out, "adam_m", ckpt.adam_m);
  EmitMatrixList(&out, "adam_v", ckpt.adam_v);
  EmitMatrixList(&out, "snapshot", ckpt.snapshot);
  out += "end\n";
  return out;
}

Result<TrainerCheckpoint> ParseCheckpoint(const std::string& payload,
                                          const std::string& context) {
  TextCursor in(payload);
  if (!in.Expect(kMagic)) {
    return Status::IOError("not a galign checkpoint (bad magic) in " +
                           context);
  }
  TrainerCheckpoint ckpt;

  auto expect_key = [&](const char* key) -> Status {
    if (!in.Expect(key)) {
      return Status::IOError("expected '" + std::string(key) + "' in " +
                             context);
    }
    return Status::OK();
  };
  auto bad_integer = [&](const char* key) {
    return Status::IOError("bad integer for '" + std::string(key) + "' in " +
                           context);
  };
  auto read_int = [&](const char* key, int* value) -> Status {
    GALIGN_RETURN_NOT_OK(expect_key(key));
    return in.Int(value) ? Status::OK() : bad_integer(key);
  };
  auto read_int64 = [&](const char* key, int64_t* value) -> Status {
    GALIGN_RETURN_NOT_OK(expect_key(key));
    return in.Int64(value) ? Status::OK() : bad_integer(key);
  };
  auto read_double = [&](const char* key, double* value) -> Status {
    GALIGN_RETURN_NOT_OK(expect_key(key));
    return in.HexDoubles(value, 1, "at '" + std::string(key) + "'", context);
  };
  // A count must be non-negative, under its cap and fit what is left at
  // `min_bytes` per item before anything is sized by it.
  auto read_count = [&](const char* key, const char* noun, int64_t cap,
                        uint64_t min_bytes, size_t* count) -> Status {
    int64_t n = 0;
    GALIGN_RETURN_NOT_OK(read_int64(key, &n));
    if (n < 0 || n > cap) {
      return Status::IOError(std::string("absurd ") + noun + " count in " +
                             context);
    }
    if (!in.Fits(static_cast<uint64_t>(n), min_bytes)) {
      return Status::IOError(std::string("'") + key + "' declares " +
                             std::to_string(n) + " values but only " +
                             std::to_string(in.remaining()) +
                             " bytes remain in " + context);
    }
    *count = static_cast<size_t>(n);
    return Status::OK();
  };

  GALIGN_RETURN_NOT_OK(read_int("epoch", &ckpt.epoch));
  GALIGN_RETURN_NOT_OK(read_double("lr", &ckpt.lr));
  GALIGN_RETURN_NOT_OK(read_int64("adam_step", &ckpt.adam_step));
  GALIGN_RETURN_NOT_OK(read_double("snapshot_loss", &ckpt.snapshot_loss));
  GALIGN_RETURN_NOT_OK(read_double("best_loss", &ckpt.best_loss));
  GALIGN_RETURN_NOT_OK(read_int("epochs_without_improvement",
                                &ckpt.epochs_without_improvement));
  GALIGN_RETURN_NOT_OK(read_int("epochs_run", &ckpt.epochs_run));
  GALIGN_RETURN_NOT_OK(read_int("steps_applied", &ckpt.steps_applied));
  GALIGN_RETURN_NOT_OK(read_int("rollbacks", &ckpt.rollbacks));

  size_t count = 0;
  GALIGN_RETURN_NOT_OK(
      read_count("rollback_epochs", "rollback_epochs", 1 << 20, 2, &count));
  ckpt.rollback_epochs.resize(count);
  for (size_t i = 0; i < count; ++i) {
    if (!in.Int(&ckpt.rollback_epochs[i])) {
      return Status::IOError("truncated rollback_epochs in " + context);
    }
  }

  GALIGN_RETURN_NOT_OK(read_double("final_lr", &ckpt.final_lr));
  GALIGN_RETURN_NOT_OK(read_double("final_loss", &ckpt.final_loss));

  GALIGN_RETURN_NOT_OK(
      read_count("loss_history", "loss_history", 1 << 24, 16, &count));
  ckpt.loss_history.resize(count);
  GALIGN_RETURN_NOT_OK(
      in.HexDoubles(ckpt.loss_history.data(), count, "loss_history", context));

  GALIGN_RETURN_NOT_OK(read_count("rng", "rng token", 1 << 16, 2, &count));
  for (size_t i = 0; i < count; ++i) {
    const std::string_view tok = in.Token();
    if (tok.empty()) {
      return Status::IOError("truncated rng state in " + context);
    }
    if (i) ckpt.rng_state += ' ';
    ckpt.rng_state += tok;
  }

  GALIGN_RETURN_NOT_OK(ParseMatrixList(&in, "weights", &ckpt.weights, context));
  GALIGN_RETURN_NOT_OK(ParseMatrixList(&in, "adam_m", &ckpt.adam_m, context));
  GALIGN_RETURN_NOT_OK(ParseMatrixList(&in, "adam_v", &ckpt.adam_v, context));
  GALIGN_RETURN_NOT_OK(
      ParseMatrixList(&in, "snapshot", &ckpt.snapshot, context));

  if (!in.Expect("end")) {
    return Status::IOError("missing 'end' sentinel in " + context);
  }
  return ckpt;
}

CheckpointManager::CheckpointManager(std::string dir, int keep)
    : store_(std::move(dir), "ckpt_", "galign-ckpt-manifest-v1", "checkpoint",
             keep) {}

Status CheckpointManager::Save(const TrainerCheckpoint& ckpt) {
  if (fault::ShouldFailIO("io.checkpoint.save")) {
    return Status::IOError("injected fault: checkpoint save to " +
                           store_.Path(ckpt.epoch));
  }
  return store_.Write(ckpt.epoch, SerializeCheckpoint(ckpt));
}

Result<TrainerCheckpoint> CheckpointManager::LoadLatest() const {
  TrainerCheckpoint out;
  GALIGN_RETURN_NOT_OK(store_.LoadLatest([&](int epoch) -> Status {
    const std::string path = store_.Path(epoch);
    if (fault::ShouldFailIO("io.checkpoint.load")) {
      return Status::IOError("injected fault: checkpoint load from " + path);
    }
    auto payload = store_.ReadPayload(epoch);
    GALIGN_RETURN_NOT_OK(payload.status());
    auto ckpt = ParseCheckpoint(payload.ValueOrDie(), path);
    GALIGN_RETURN_NOT_OK(ckpt.status());
    out = ckpt.MoveValueOrDie();
    return Status::OK();
  }));
  return out;
}

}  // namespace galign
