// Serialize / deserialize an AnnIndex (DESIGN.md §12).
//
// The index is a deterministic pure function of (base rows, config, seed)
// — the DESIGN.md §11 reproducibility contract — so the durable form of an
// index is its *recipe*: the full AnnConfig, the expected shape, and a
// behavioral fingerprint (a CRC32 over the results of a fixed probe query
// batch). Deserialization re-runs the seeded build over the caller's base
// rows and then verifies the fingerprint, rejecting with a typed IOError
// when the rebuilt index answers differently than the one that was saved
// (wrong base rows, config drift, or a build that stopped being
// deterministic). This keeps artifacts small — the base embedding
// rows are stored once by the containing artifact, not duplicated inside
// the index section — while still giving load-time verify-or-reject
// semantics over the retrieval structure itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/run_context.h"
#include "common/status.h"
#include "graph/ann/ann_index.h"
#include "la/matrix.h"

namespace galign {

/// \brief Behavioral fingerprint of `index`: CRC32 over the exact results
/// (indices + IEEE-754 score bits) of a fixed probe batch — the first
/// min(16, size) base rows queried with k = min(8, size).
///
/// Two indices with equal fingerprints answer the probe batch identically;
/// a rebuilt index with a differing fingerprint is not the index that was
/// saved.
uint32_t AnnIndexFingerprint(const AnnIndex& index);

/// \brief Serializes the recipe (index.config() + shape + fingerprint) of
/// `index` in the `galign-ann-recipe-v2` layout. Text payload, no CRC
/// trailer — the containing artifact is responsible for durability
/// framing.
std::string SerializeAnnRecipe(const AnnIndex& index);

/// \brief Rebuilds the index described by `payload` over `base` and
/// verifies it.
///
/// Reads the v2 layout and the v1 layout an earlier build published; a v1
/// recipe whose backend is not `lsh` is an IOError asking for a re-export.
/// Fails with IOError when the payload is malformed, lsh_tables lies
/// outside [1, 64], the shape disagrees with `base`, or the rebuilt index's
/// fingerprint differs from the saved one. `context` names the source in
/// error messages. Budget admission and deadlines apply through `ctx`
/// exactly as in BuildAnnIndex.
[[nodiscard]] Result<std::unique_ptr<AnnIndex>> RebuildAnnIndex(
    const std::string& payload, Matrix base, const RunContext& ctx,
    const std::string& context);

}  // namespace galign
