// Cosine LSH via signed random projections (Charikar 2002), multi-table
// with multiprobe (Lv et al. 2007): the AnnIndex that BuildAnnIndex
// (graph/ann/ann_index.h) builds.
//
// Build: every indexed row is projected onto `tables * bits` Gaussian
// hyperplanes with one blocked GEMM (hashing is a matrix product, not n
// scalar loops); the sign pattern of each `bits`-wide slice is that table's
// bucket signature. Each table freezes, by a counting sort, into a
// direct-addressed CSR layout — bucket_starts (2^bits + 1 offsets) plus a
// packed id array ordered by (signature, id) — so probing a bucket is two
// array reads, not a binary search over the whole table (the searches were
// the dominant query cost: ~15 dependent cache misses per probed bucket,
// per table). Iteration inside a bucket is ascending id (determinism).
//
// Query: signatures come from the same GEMM over the query block. Per
// table the exact bucket is probed first, then buckets at Hamming
// distance 1, 2, ... obtained by flipping the lowest-|projection| bits
// (the bits most likely to disagree across the boundary). The union of
// probed buckets, deduped with a stamp array, is scored against the stored
// base rows by the lane kernel RowDots (la/row_dots.h) and kept through a
// bounded (score desc, id asc) heap — the same total order TopKSelect
// uses — so the output contract (descending score, lowest index wins) is
// identical to the exact chunked scan and recall is the only difference.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/memory_budget.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "common/status.h"
#include "graph/ann/ann_index.h"
#include "graph/similarity_chunked.h"
#include "la/matrix.h"
#include "la/ops.h"
#include "la/row_dots.h"

namespace galign {
namespace {

// Rows hashed (build) or queried per outer block: bounds the transient
// projection buffer and sets the deadline-poll granularity.
constexpr int64_t kHashBlockRows = 4096;
constexpr int64_t kQueryBlockRows = 256;

constexpr double kNoScore = -std::numeric_limits<double>::infinity();

// Allocates the -1 / -inf padded TopKAlignment skeleton QueryBatch fills
// (rows_computed stays 0 for the caller to advance).
Result<TopKAlignment> MakeEmptyTopK(int64_t rows, int64_t cols, int64_t k) {
  TopKAlignment out;
  out.rows = rows;
  out.cols = cols;
  out.k = k;
  out.rows_computed = 0;
  try {
    out.index.assign(static_cast<size_t>(rows) * k, -1);
    out.score.assign(static_cast<size_t>(rows) * k, kNoScore);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "AnnIndex: top-k output of " + std::to_string(rows) + "x" +
        std::to_string(k) + " does not fit");
  }
  return out;
}

class LshIndex final : public AnnIndex {
 public:
  LshIndex(Matrix base, Matrix planes, const AnnConfig& config,
           int64_t tables, int64_t bits, int64_t probes, MemoryScope scope)
      : base_(std::move(base)),
        planes_(std::move(planes)),
        config_(config),
        tables_(tables),
        bits_(bits),
        probes_(probes),
        scope_(std::move(scope)),
        bucket_starts_(static_cast<size_t>(tables)),
        bucket_ids_(static_cast<size_t>(tables)) {}

  int64_t size() const override { return indexed_; }
  int64_t dim() const override { return base_.cols(); }
  bool truncated() const override { return indexed_ < base_.rows(); }
  const Matrix& base() const override { return base_; }
  const AnnConfig& config() const override { return config_; }

  uint64_t MemoryBytes() const override {
    uint64_t bytes = DenseBytes(base_.rows(), base_.cols()) +
                     DenseBytes(planes_.rows(), planes_.cols());
    for (const auto& t : bucket_starts_) bytes += t.size() * sizeof(int32_t);
    for (const auto& t : bucket_ids_) bytes += t.size() * sizeof(int32_t);
    return bytes;
  }

  [[nodiscard]] Result<TopKAlignment> QueryBatch(
      const Matrix& queries, int64_t k, const RunContext& ctx,
      double effort) const override;

  /// Hashes rows [0, n) of the base into the tables, winding down at the
  /// deadline with the prefix inserted so far.
  Status BuildTables(const RunContext& ctx);

  /// Signature of `bits_`-wide projection slice `t` in `proj` row `r`.
  uint32_t Signature(const Matrix& proj, int64_t r, int64_t t) const {
    uint32_t sig = 0;
    const double* p = proj.row_data(r) + t * bits_;
    for (int64_t b = 0; b < bits_; ++b) {
      if (p[b] >= 0.0) sig |= (uint32_t{1} << b);
    }
    return sig;
  }

 private:
  // Appends candidate ids from the bucket `sig` of table `t`, deduping via
  // the epoch-stamped scratch array. Direct-addressed: two offset reads
  // bound the bucket's slice of the packed id array. Each fresh candidate's
  // base row is prefetched here — by the time the re-rank loop reads it the
  // line is resident, which matters because candidate rows are scattered
  // across a base that far outgrows L2 (the gathers, not the dot products,
  // bound re-rank throughput).
  void ProbeBucket(int64_t t, uint32_t sig, int32_t epoch,
                   std::vector<int32_t>* stamp,
                   std::vector<int32_t>* cand) const {
    const auto& starts = bucket_starts_[static_cast<size_t>(t)];
    const auto& ids = bucket_ids_[static_cast<size_t>(t)];
    const int32_t b = starts[sig];
    const int32_t e = starts[sig + 1];
    for (int32_t j = b; j < e; ++j) {
      const int32_t id = ids[static_cast<size_t>(j)];
      if ((*stamp)[id] != epoch) {
        (*stamp)[id] = epoch;
        __builtin_prefetch(base_.row_data(id));
        cand->push_back(id);
      }
    }
  }

  Matrix base_;
  Matrix planes_;  // (tables * bits) x dim hyperplane normals
  AnnConfig config_;
  int64_t tables_;
  int64_t bits_;
  int64_t probes_;
  int64_t indexed_ = 0;
  MemoryScope scope_;  // index-lifetime budget reservation
  // Per-table CSR buckets: starts has 2^bits + 1 offsets into ids, which
  // holds the indexed row ids ordered by (signature, id).
  std::vector<std::vector<int32_t>> bucket_starts_;
  std::vector<std::vector<int32_t>> bucket_ids_;
};

Status LshIndex::BuildTables(const RunContext& ctx) {
  const int64_t n = base_.rows();
  const int64_t sig_cols = tables_ * bits_;
  const size_t nbuckets = size_t{1} << bits_;
  if (n == 0) {
    try {
      for (auto& t : bucket_starts_) t.assign(nbuckets + 1, 0);
    } catch (const std::bad_alloc&) {
      return Status::ResourceExhausted("LshIndex: bucket offsets do not fit");
    }
    return Status::OK();
  }

  // Transient signatures, table-major: sigs[t * n + r] is row r's bucket in
  // table t. Frozen into CSR below.
  std::vector<uint32_t> sigs;
  try {
    sigs.resize(static_cast<size_t>(tables_ * n));
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("LshIndex: signatures for " +
                                     std::to_string(n) + " rows do not fit");
  }

  auto proj = Matrix::TryCreate(std::min(kHashBlockRows, n), sig_cols);
  GALIGN_RETURN_NOT_OK(proj.status());
  Matrix& p = proj.ValueOrDie();

  for (int64_t r0 = 0; r0 < n; r0 += kHashBlockRows) {
    if (ctx.ShouldStop()) break;  // truncated index over the prefix
    const int64_t nrows = std::min(kHashBlockRows, n - r0);
    if (p.rows() != nrows) p.Resize(nrows, sig_cols);
    MatMulTransposedBRowsInto(base_, r0, nrows, planes_, &p);
    ParallelFor(
        0, nrows,
        [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            for (int64_t t = 0; t < tables_; ++t) {
              sigs[static_cast<size_t>(t * n + r0 + i)] = Signature(p, i, t);
            }
          }
        },
        /*min_chunk=*/512);
    indexed_ = r0 + nrows;
  }

  // Freeze each table by a counting sort: bucket sizes prefix-summed into
  // the offsets, then the ids placed in ascending order, which leaves every
  // bucket sorted by id — the (signature, id) order.
  try {
    for (int64_t t = 0; t < tables_; ++t) {
      bucket_starts_[static_cast<size_t>(t)].assign(nbuckets + 1, 0);
      bucket_ids_[static_cast<size_t>(t)].resize(static_cast<size_t>(indexed_));
    }
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("LshIndex: bucket offsets for " +
                                     std::to_string(tables_) + " x 2^" +
                                     std::to_string(bits_) +
                                     " buckets do not fit");
  }
  ParallelFor(
      0, tables_,
      [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          const uint32_t* sig = sigs.data() + t * n;
          auto& starts = bucket_starts_[static_cast<size_t>(t)];
          auto& ids = bucket_ids_[static_cast<size_t>(t)];
          for (int64_t r = 0; r < indexed_; ++r) ++starts[sig[r] + 1];
          for (size_t b = 1; b <= nbuckets; ++b) starts[b] += starts[b - 1];
          // starts[b] is bucket b's next free slot while placing, so it
          // ends at bucket b + 1's offset; shifting by one restores it.
          for (int64_t r = 0; r < indexed_; ++r) {
            const int32_t at = starts[sig[r]]++;
            ids[static_cast<size_t>(at)] = static_cast<int32_t>(r);
          }
          for (size_t b = nbuckets; b > 0; --b) starts[b] = starts[b - 1];
          starts[0] = 0;
        }
      },
      /*min_chunk=*/1);
  return Status::OK();
}

Result<TopKAlignment> LshIndex::QueryBatch(const Matrix& queries, int64_t k,
                                           const RunContext& ctx,
                                           double effort) const {
  if (queries.cols() != base_.cols()) {
    return Status::InvalidArgument(
        "LshIndex::QueryBatch: query dim " + std::to_string(queries.cols()) +
        " != index dim " + std::to_string(base_.cols()));
  }
  if (k <= 0) {
    return Status::InvalidArgument("LshIndex::QueryBatch: k must be > 0");
  }
  const int64_t rows = queries.rows();
  const int64_t kq = std::min(k, indexed_);
  auto out_r = MakeEmptyTopK(rows, base_.rows(), kq);
  GALIGN_RETURN_NOT_OK(out_r.status());
  TopKAlignment& out = out_r.ValueOrDie();
  if (rows == 0 || kq == 0) {
    out.rows_computed = rows;  // nothing retrievable: all rows are -1 padded
    return out_r;
  }

  // Degraded effort visits fewer buckets per table; the exact bucket is
  // always probed, so effort only trims the multiprobe expansion.
  const double eff = std::clamp(effort, 0.0, 1.0);
  const int64_t eff_probes = std::max<int64_t>(
      1, std::llround(static_cast<double>(probes_) * eff));
  const int64_t sig_cols = tables_ * bits_;
  const int64_t qblock = std::min(kQueryBlockRows, rows);
  MemoryScope scope;
  GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(
      ctx.budget(),
      TopKOutputBytes(rows, kq) + DenseBytes(qblock, sig_cols) +
          static_cast<uint64_t>(ParallelismLevel()) *
              static_cast<uint64_t>(indexed_) * sizeof(int32_t),
      "lsh query batch", &scope));

  auto proj = Matrix::TryCreate(qblock, sig_cols);
  GALIGN_RETURN_NOT_OK(proj.status());
  Matrix& p = proj.ValueOrDie();

  for (int64_t r0 = 0; r0 < rows; r0 += qblock) {
    if (ctx.ShouldStop()) break;  // wind down with the rows finished so far
    const int64_t nrows = std::min(qblock, rows - r0);
    if (p.rows() != nrows) p.Resize(nrows, sig_cols);
    MatMulTransposedBRowsInto(queries, r0, nrows, planes_, &p);

    ParallelFor(
        0, nrows,
        [&](int64_t cb, int64_t ce) {
          // Per-chunk scratch; the epoch stamp makes dedupe O(1) per id
          // without clearing between queries.
          std::vector<int32_t> stamp(static_cast<size_t>(base_.rows()), -1);
          std::vector<int32_t> cand;
          std::vector<const double*> cand_rows;
          std::vector<double> scores;
          std::vector<int32_t> order(static_cast<size_t>(bits_));
          // Bounded top-k heap over (score, id), worst kept entry on top.
          // Candidates stream through in bucket order — no sort, no dense
          // score array — and the (descending score, ascending id) total
          // order makes the kept set and its output order identical to the
          // exact path's TopKSelect contract.
          struct Ent {
            double score;
            int32_t id;
          };
          auto better = [](const Ent& a, const Ent& b) {
            return a.score != b.score ? a.score > b.score : a.id < b.id;
          };
          std::vector<Ent> heap;
          heap.reserve(static_cast<size_t>(kq));
          for (int64_t i = cb; i < ce; ++i) {
            const int32_t epoch = static_cast<int32_t>(i);
            cand.clear();
            for (int64_t t = 0; t < tables_; ++t) {
              const uint32_t sig = Signature(p, i, t);
              ProbeBucket(t, sig, epoch, &stamp, &cand);
              if (eff_probes <= 1) continue;
              // Flip order: least-confident bits (smallest |projection|)
              // first — those are the likeliest to differ from a true
              // neighbor's signature.
              const double* pr = p.row_data(i) + t * bits_;
              for (int64_t b = 0; b < bits_; ++b)
                order[static_cast<size_t>(b)] = static_cast<int32_t>(b);
              std::sort(order.begin(), order.end(),
                        [&](int32_t a, int32_t b) {
                          const double fa = std::fabs(pr[a]);
                          const double fb = std::fabs(pr[b]);
                          return fa != fb ? fa < fb : a < b;
                        });
              int64_t emitted = 1;
              for (int64_t a = 0; a < bits_ && emitted < eff_probes; ++a) {
                ProbeBucket(t, sig ^ (uint32_t{1} << order[a]), epoch,
                            &stamp, &cand);
                ++emitted;
              }
              for (int64_t a = 0; a < bits_ && emitted < eff_probes; ++a) {
                for (int64_t b = a + 1; b < bits_ && emitted < eff_probes;
                     ++b) {
                  ProbeBucket(t,
                              sig ^ (uint32_t{1} << order[a]) ^
                                  (uint32_t{1} << order[b]),
                              epoch, &stamp, &cand);
                  ++emitted;
                }
              }
            }
            const size_t csize = cand.size();
            cand_rows.resize(csize);
            scores.resize(csize);
            for (size_t c = 0; c < csize; ++c) {
              cand_rows[c] = base_.row_data(cand[c]);
            }
            RowDots(queries.row_data(r0 + i), cand_rows.data(),
                    static_cast<int64_t>(csize), base_.cols(), scores.data());
            heap.clear();
            for (size_t c = 0; c < csize; ++c) {
              const Ent e{scores[c], cand[c]};
              if (static_cast<int64_t>(heap.size()) < kq) {
                heap.push_back(e);
                std::push_heap(heap.begin(), heap.end(), better);
              } else if (better(e, heap.front())) {
                std::pop_heap(heap.begin(), heap.end(), better);
                heap.back() = e;
                std::push_heap(heap.begin(), heap.end(), better);
              }
            }
            // Drain worst-first, filling the row back-to-front; slots past
            // the kept count keep their -1 / -inf padding.
            while (!heap.empty()) {
              std::pop_heap(heap.begin(), heap.end(), better);
              const Ent e = heap.back();
              heap.pop_back();
              const int64_t j = static_cast<int64_t>(heap.size());
              out.index[(r0 + i) * kq + j] = e.id;
              out.score[(r0 + i) * kq + j] = e.score;
            }
          }
        },
        /*min_chunk=*/16);
    out.rows_computed = r0 + nrows;
  }
  return out_r;
}

}  // namespace

Result<std::unique_ptr<AnnIndex>> BuildAnnIndex(Matrix base,
                                                const AnnConfig& config,
                                                const RunContext& ctx) {
  if (base.rows() < 0 || base.cols() < 0) {
    return Status::InvalidArgument("BuildAnnIndex: negative base extents");
  }
  // A failed build, as a budget refusal would fail it: refinement falls
  // back to its exact scan for that iteration.
  if (fault::ShouldFailIO("ann.build")) {
    return Status::ResourceExhausted("BuildAnnIndex: injected build failure");
  }
  const int64_t n = base.rows();
  const int64_t d = base.cols();
  const int64_t tables = std::max<int64_t>(1, config.lsh_tables);
  const int64_t bits = EffectiveLshBits(config, n);
  const int64_t probes = std::max<int64_t>(1, config.lsh_probes);

  MemoryScope scope;
  GALIGN_RETURN_NOT_OK(MemoryScope::Reserve(ctx.budget(),
                                            EstimateAnnIndexBytes(n, d, config),
                                            "lsh index", &scope));

  // Hyperplane normals: tables * bits rows, bits <= 20. The table count is
  // the caller's configuration; a recipe read from disk is held to
  // [1, 64] tables before it gets here (ann_io.cc), so the throwing
  // constructor is fine per DESIGN.md §9.
  Rng rng(config.seed);
  Matrix planes = Matrix::Gaussian(tables * bits, d, &rng);

  auto index = std::make_unique<LshIndex>(std::move(base), std::move(planes),
                                          config, tables, bits, probes,
                                          std::move(scope));
  GALIGN_RETURN_NOT_OK(index->BuildTables(ctx));
  return Result<std::unique_ptr<AnnIndex>>(std::move(index));
}

}  // namespace galign
