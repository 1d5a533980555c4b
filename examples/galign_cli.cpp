// Command-line network alignment tool: the adoption path for users with
// their own data. Reads edge lists (and optional TSV attributes) for two
// networks, runs any of the implemented methods, and writes anchor links
// and/or the full alignment matrix.
//
// Usage:
//   galign_cli --source=s.edges --target=t.edges
//              [--source-attrs=s.tsv --target-attrs=t.tsv]
//              [--method=galign|final|isorank|regal|pale|cenalp|unialign|netalign|deeplink|ione]
//              [--seeds=seeds.txt]            # "source target" pairs
//              [--anchors-out=anchors.txt]    # greedy 1-1 anchor links
//              [--matrix-out=matrix.tsv]      # full alignment matrix
//              [--hungarian]                  # optimal 1-1 instead of greedy
//              [--epochs=30] [--dim=128]
//              [--mem-budget=512m]            # cap matrix memory (k/m/g)
//              [--topk=10]                    # k for the top-k path
//              [--ann=auto|on|off]            # sublinear candidate retrieval
//              [--ann-recall-target=0.98]
//
// With no --*-out flags, the top anchors are printed to stdout.
//
// --mem-budget holds the run to a byte budget (DESIGN.md §9): when the
// dense n1 x n2 alignment matrix does not fit, the tool degrades to the
// row-blocked top-k kernel and emits top-1 anchors instead of dying on
// bad_alloc (--matrix-out and --hungarian need the dense matrix and are
// unavailable in that mode).
//
// --ann controls the DESIGN.md §11 retrieval layer on the top-k path:
// "auto" (default) routes AlignTopK through the ANN index when both
// networks clear the size threshold, "on" forces it, "off" keeps the
// exact chunked scan. Only methods with an ANN route (galign, regal,
// degree, attrs) consult it; the dense Align path is always exact.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "align/alignment_io.h"
#include "common/durable_io.h"
#include "common/flag_validate.h"
#include "align/hungarian.h"
#include "baselines/cenalp.h"
#include "baselines/deeplink.h"
#include "baselines/final.h"
#include "baselines/ione.h"
#include "baselines/isorank.h"
#include "baselines/naive.h"
#include "baselines/netalign.h"
#include "baselines/pale.h"
#include "baselines/regal.h"
#include "baselines/unialign.h"
#include "core/galign.h"
#include "graph/ann/ann_index.h"
#include "graph/io.h"
#include "graph/stats.h"

using namespace galign;

namespace {

struct CliOptions {
  std::string source, target;
  std::string source_attrs, target_attrs;
  std::string method = "galign";
  std::string seeds_path;
  std::string anchors_out, matrix_out;
  bool hungarian = false;
  int epochs = 30;
  int64_t dim = 128;
  uint64_t mem_budget = 0;  ///< 0 = unbounded
  int64_t topk = 10;        ///< k for the budget-degraded top-k path
  AnnPolicy ann;            ///< DESIGN.md §11 retrieval policy
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

Result<AttributedGraph> LoadNetwork(const std::string& edges,
                                    const std::string& attrs) {
  auto g = LoadEdgeList(edges);
  GALIGN_RETURN_NOT_OK(g.status());
  if (attrs.empty()) return g;
  auto f = LoadAttributes(attrs);
  GALIGN_RETURN_NOT_OK(f.status());
  return g.ValueOrDie().WithAttributes(f.MoveValueOrDie());
}

std::unique_ptr<Aligner> MakeAligner(const CliOptions& opt) {
  if (opt.method == "galign") {
    GAlignConfig cfg;
    cfg.epochs = opt.epochs;
    cfg.embedding_dim = opt.dim;
    return std::make_unique<GAlignAligner>(cfg);
  }
  if (opt.method == "final") return std::make_unique<FinalAligner>();
  if (opt.method == "isorank") return std::make_unique<IsoRankAligner>();
  if (opt.method == "regal") return std::make_unique<RegalAligner>();
  if (opt.method == "pale") return std::make_unique<PaleAligner>();
  if (opt.method == "cenalp") return std::make_unique<CenalpAligner>();
  if (opt.method == "unialign") return std::make_unique<UniAlignAligner>();
  if (opt.method == "netalign") return std::make_unique<NetAlignAligner>();
  if (opt.method == "deeplink") return std::make_unique<DeepLinkAligner>();
  if (opt.method == "ione") return std::make_unique<IoneAligner>();
  if (opt.method == "degree") return std::make_unique<DegreeRankAligner>();
  if (opt.method == "attrs") return std::make_unique<AttributeOnlyAligner>();
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  std::string flag;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--source", &opt.source)) continue;
    if (ParseFlag(argv[i], "--target", &opt.target)) continue;
    if (ParseFlag(argv[i], "--source-attrs", &opt.source_attrs)) continue;
    if (ParseFlag(argv[i], "--target-attrs", &opt.target_attrs)) continue;
    if (ParseFlag(argv[i], "--method", &opt.method)) continue;
    if (ParseFlag(argv[i], "--seeds", &opt.seeds_path)) continue;
    if (ParseFlag(argv[i], "--anchors-out", &opt.anchors_out)) continue;
    if (ParseFlag(argv[i], "--matrix-out", &opt.matrix_out)) continue;
    if (std::strcmp(argv[i], "--hungarian") == 0) {
      opt.hungarian = true;
      continue;
    }
    if (ParseFlag(argv[i], "--epochs", &flag)) {
      opt.epochs = std::atoi(flag.c_str());
      continue;
    }
    if (ParseFlag(argv[i], "--dim", &flag)) {
      opt.dim = std::atoll(flag.c_str());
      continue;
    }
    if (ParseFlag(argv[i], "--mem-budget", &flag)) {
      auto bytes = GALIGN_VALIDATE_BYTE_SIZE(flag, "--mem-budget");
      if (!bytes.ok()) {
        std::fprintf(stderr, "%s\n", bytes.status().ToString().c_str());
        return 2;
      }
      opt.mem_budget = bytes.ValueOrDie();
      continue;
    }
    if (ParseFlag(argv[i], "--topk", &flag)) {
      auto k = GALIGN_VALIDATE_POSITIVE_INT(flag, "--topk");
      if (!k.ok()) {
        std::fprintf(stderr, "%s\n", k.status().ToString().c_str());
        return 2;
      }
      opt.topk = k.ValueOrDie();
      continue;
    }
    if (ParseFlag(argv[i], "--ann", &flag)) {
      if (flag == "auto") opt.ann.mode = AnnMode::kAuto;
      else if (flag == "on") opt.ann.mode = AnnMode::kOn;
      else if (flag == "off") opt.ann.mode = AnnMode::kOff;
      else {
        std::fprintf(stderr, "bad --ann value (auto|on|off): %s\n",
                     flag.c_str());
        return 2;
      }
      continue;
    }
    if (ParseFlag(argv[i], "--ann-recall-target", &flag)) {
      auto target = GALIGN_VALIDATE_UNIT_INTERVAL(flag, "--ann-recall-target");
      if (!target.ok()) {
        std::fprintf(stderr, "%s\n", target.status().ToString().c_str());
        return 2;
      }
      opt.ann.recall_target = target.ValueOrDie();
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
    return 2;
  }
  if (opt.source.empty() || opt.target.empty()) {
    std::fprintf(stderr,
                 "usage: galign_cli --source=<edges> --target=<edges> "
                 "[--method=galign|final|isorank|regal|pale|cenalp|unialign|netalign|deeplink|ione|degree|attrs] "
                 "[--source-attrs=<tsv>] [--target-attrs=<tsv>] "
                 "[--seeds=<pairs>] [--anchors-out=<file>] "
                 "[--matrix-out=<file>] [--hungarian] [--mem-budget=512m] "
                 "[--topk=10] [--ann=auto|on|off] "
                 "[--ann-recall-target=0.98]\n");
    return 2;
  }

  auto src = LoadNetwork(opt.source, opt.source_attrs);
  if (!src.ok()) {
    std::fprintf(stderr, "source: %s\n", src.status().ToString().c_str());
    return 1;
  }
  auto tgt = LoadNetwork(opt.target, opt.target_attrs);
  if (!tgt.ok()) {
    std::fprintf(stderr, "target: %s\n", tgt.status().ToString().c_str());
    return 1;
  }
  std::printf("source: %s\n",
              StatsToString(ComputeStats(src.ValueOrDie())).c_str());
  std::printf("target: %s\n",
              StatsToString(ComputeStats(tgt.ValueOrDie())).c_str());
  // Data-dependent bound: only checkable once the target network's size is
  // known.
  if (Status bound = GALIGN_VALIDATE_TOPK_BOUND(
          opt.topk, tgt.ValueOrDie().num_nodes(), "--topk");
      !bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.ToString().c_str());
    return 2;
  }

  Supervision sup;
  if (!opt.seeds_path.empty()) {
    auto seeds = LoadGroundTruth(opt.seeds_path,
                                 src.ValueOrDie().num_nodes());
    if (!seeds.ok()) {
      std::fprintf(stderr, "seeds: %s\n", seeds.status().ToString().c_str());
      return 1;
    }
    for (size_t v = 0; v < seeds.ValueOrDie().size(); ++v) {
      if (seeds.ValueOrDie()[v] != -1) {
        sup.seeds.emplace_back(static_cast<int64_t>(v),
                               seeds.ValueOrDie()[v]);
      }
    }
    std::printf("loaded %zu seed anchors\n", sup.seeds.size());
  }

  auto aligner = MakeAligner(opt);
  if (!aligner) {
    std::fprintf(stderr, "unknown method: %s\n", opt.method.c_str());
    return 2;
  }
  aligner->set_ann_policy(opt.ann);
  std::printf("aligning with %s...\n", aligner->name().c_str());
  RunContext ctx = opt.mem_budget > 0
                       ? RunContext::WithMemoryBudget(opt.mem_budget)
                       : RunContext();

  // Top-k path: budget degradation (DESIGN.md §9) and the --ann=on route
  // (DESIGN.md §11) both answer per-row top-k instead of the dense matrix.
  auto run_chunked = [&](const char* reason) -> int {
    std::printf("%s; using the top-k path (k=%lld)\n", reason,
                (long long)opt.topk);
    if (opt.hungarian || !opt.matrix_out.empty()) {
      std::fprintf(stderr,
                   "--hungarian/--matrix-out need the dense matrix and are "
                   "unavailable on the top-k path\n");
      return 2;
    }
    auto topk = aligner->AlignTopK(src.ValueOrDie(), tgt.ValueOrDie(), sup,
                                   ctx, opt.topk);
    if (!topk.ok()) {
      std::fprintf(stderr, "alignment failed: %s\n",
                   topk.status().ToString().c_str());
      return 1;
    }
    const TopKAlignment& a = topk.ValueOrDie();
    std::printf("peak tracked matrix memory: %llu bytes\n",
                (unsigned long long)MemoryTracker::PeakBytes());
    if (!opt.anchors_out.empty()) {
      std::string text;
      for (int64_t v = 0; v < a.rows_computed; ++v) {
        int64_t t = a.Top1(v);
        if (t < 0) continue;
        text += std::to_string(v) + "\t" + std::to_string(t) + "\t" +
                std::to_string(a.score[v * a.k]) + "\n";
      }
      auto st = AtomicWriteFile(opt.anchors_out, text);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("wrote top-1 anchors to %s\n", opt.anchors_out.c_str());
    } else {
      std::printf("top anchor links (source -> target, score):\n");
      int64_t shown = 0;
      for (int64_t v = 0; v < a.rows_computed && shown < 20; ++v) {
        int64_t t = a.Top1(v);
        if (t < 0) continue;
        std::printf("  %lld -> %lld  (%.4f)\n", (long long)v, (long long)t,
                    a.score[v * a.k]);
        ++shown;
      }
    }
    return 0;
  };

  if (opt.ann.mode == AnnMode::kOn) {
    return run_chunked("--ann=on requests index-routed retrieval");
  }
  if (opt.mem_budget > 0) {
    const uint64_t estimate = aligner->EstimatePeakBytes(
        src.ValueOrDie().num_nodes(), tgt.ValueOrDie().num_nodes(),
        src.ValueOrDie().attributes().cols());
    if (estimate > opt.mem_budget) {
      return run_chunked("dense run exceeds --mem-budget");
    }
  }
  auto s = aligner->Align(src.ValueOrDie(), tgt.ValueOrDie(), sup, ctx);
  if (!s.ok()) {
    if (opt.mem_budget > 0 &&
        s.status().code() == StatusCode::kResourceExhausted) {
      return run_chunked("dense run exhausted --mem-budget");
    }
    std::fprintf(stderr, "alignment failed: %s\n",
                 s.status().ToString().c_str());
    return 1;
  }

  std::vector<int64_t> anchors;
  if (opt.hungarian) {
    auto h = HungarianMatch(s.ValueOrDie());
    if (!h.ok()) {
      std::fprintf(stderr, "matching failed: %s\n",
                   h.status().ToString().c_str());
      return 1;
    }
    anchors = h.MoveValueOrDie();
  } else {
    anchors = GreedyOneToOneAnchors(s.ValueOrDie());
  }

  if (!opt.matrix_out.empty()) {
    auto st = SaveAlignmentMatrix(s.ValueOrDie(), opt.matrix_out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote alignment matrix to %s\n", opt.matrix_out.c_str());
  }
  if (!opt.anchors_out.empty()) {
    auto st = SaveAnchors(s.ValueOrDie(), anchors, opt.anchors_out);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote anchors to %s\n", opt.anchors_out.c_str());
  }
  if (opt.anchors_out.empty() && opt.matrix_out.empty()) {
    std::printf("top anchor links (source -> target, score):\n");
    int64_t shown = 0;
    for (size_t v = 0; v < anchors.size() && shown < 20; ++v) {
      if (anchors[v] == -1) continue;
      std::printf("  %zu -> %lld  (%.4f)\n", v, (long long)anchors[v],
                  s.ValueOrDie()(static_cast<int64_t>(v), anchors[v]));
      ++shown;
    }
  }
  return 0;
}
