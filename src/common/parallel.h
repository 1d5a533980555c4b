// A small static thread pool exposing parallel_for. Dense kernels in la/ use
// it to scale GEMM/SpMM across cores without an OpenMP dependency.
#pragma once

#include <cstdint>
#include <functional>

namespace galign {

/// Number of worker threads the pool was created with (>= 1): the CPUs in
/// the process's affinity mask when the pool was first used
/// (hardware_concurrency() if the mask cannot be read).
int ParallelismLevel();

/// \brief Runs fn(begin..end) partitioned across the thread pool.
///
/// Blocks until all chunks complete. fn receives half-open ranges
/// [chunk_begin, chunk_end). Falls back to a serial call when the range is
/// small, the pool has a single worker, or the pool is busy with another
/// thread's call (so any number of threads may call this at once). fn must
/// be thread-safe across disjoint ranges.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t, int64_t)>& fn,
                 int64_t min_chunk = 1024);

}  // namespace galign
