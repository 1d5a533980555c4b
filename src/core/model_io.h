// Persistence for trained GCN models: train once, reuse across processes
// (e.g. embed new snapshots of the same networks, or serve alignment
// queries without retraining). Plain-text format with a header carrying the
// architecture so loading validates shape compatibility.
#pragma once

#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/status.h"
#include "core/gcn.h"
#include "la/matrix.h"

namespace galign {

/// \brief Appends `key <count>` then each matrix as `rows cols` + hex-encoded
/// (bit-exact) doubles — the shared durable matrix-list encoding used by
/// trainer checkpoints and the serving artifact.
void EmitMatrixList(std::string* out, const char* key,
                    const std::vector<Matrix>& ms);

/// Upper bound on the bytes EmitMatrixList appends for `ms` (for reserve).
size_t MatrixListBytes(const std::vector<Matrix>& ms);

/// \brief Inverse of EmitMatrixList, reading from `in`. Every defect (wrong
/// key, absurd or overflowing shape, a shape with more values than the
/// bytes left could hold, truncated or malformed payload) is an IOError
/// naming `context`; no matrix is allocated before its shape is checked.
[[nodiscard]] Status ParseMatrixList(TextCursor* in, const char* key,
                                     std::vector<Matrix>* out,
                                     const std::string& context);

/// Serializes the model architecture + weights to the galign-gcn-v1 text
/// payload (no CRC trailer). The string form exists so containers — the
/// serving AlignmentIndex artifact (DESIGN.md §12) — can embed a model
/// inside a larger durable file instead of managing a sidecar path.
std::string SerializeGcnModel(const MultiOrderGcn& gcn);

/// Parses a galign-gcn-v1 payload (trailer already stripped). `context`
/// names the source in error messages (a path, or "artifact <p> model
/// section").
[[nodiscard]] Result<MultiOrderGcn> ParseGcnModel(const std::string& payload,
                                                  const std::string& context);

/// Writes the model architecture + weights to `path` (CRC-trailed,
/// atomically renamed into place).
[[nodiscard]] Status SaveGcnModel(const MultiOrderGcn& gcn, const std::string& path);

/// Reads a model written by SaveGcnModel. The activation is restored from
/// the header.
[[nodiscard]] Result<MultiOrderGcn> LoadGcnModel(const std::string& path);

}  // namespace galign
