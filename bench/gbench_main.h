// Shared google-benchmark main for the JSON-recorded benches
// (bench_kernels, bench_ann, bench_serving): stamps the benchmark context
// with the galign build flavor and the git SHA handed in by
// bench/run_all.sh, so every recorded BENCH_*.json carries provenance —
// which tree produced it, whether the library was compiled with
// optimizations, how many threads the kernels' pool ran, and (JSON output
// only) `host_steal_s`, the seconds the host took from this machine's
// vCPUs during the run, so that cells from a loaded host can be told
// apart from one snapshot to the next. run_all.sh
// reads the galign_build_type stamp back and refuses to record JSON
// snapshots from non-release builds (a debug-build perf snapshot would
// poison the cross-PR perf trajectory).
//
// The stock "library_build_type" context key reports how the *installed
// libbenchmark* was compiled, not this repository — hence the custom key.
#pragma once

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"

namespace galign_bench {

// Host steal time so far, summed over CPUs (the `cpu` line of /proc/stat),
// in seconds; NaN where it cannot be read.
inline double HostStealSeconds() {
  double steal = std::nan("");
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long t[8];
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                    &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]) == 8) {
      steal = static_cast<double>(t[7]) /
              static_cast<double>(sysconf(_SC_CLK_TCK));
    }
    std::fclose(f);
  }
  return steal;
}

// The JSON reporter with its output held back until the run ends, so that
// the context block can carry the host steal measured over the whole run.
class StealStampedJsonReporter : public benchmark::JSONReporter {
 public:
  bool ReportContext(const Context& context) override {
    context_.emplace(context);
    steal_at_start_ = HostStealSeconds();
    return true;
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    runs_.push_back(runs);
  }
  void Finalize() override {
    char steal[32];
    std::snprintf(steal, sizeof(steal), "%.2f",
                  HostStealSeconds() - steal_at_start_);
    benchmark::AddCustomContext("host_steal_s", steal);
    if (!context_ || !JSONReporter::ReportContext(*context_)) return;
    for (const std::vector<Run>& runs : runs_) JSONReporter::ReportRuns(runs);
    JSONReporter::Finalize();
  }

 private:
  std::optional<Context> context_;
  double steal_at_start_ = 0.0;
  std::vector<std::vector<Run>> runs_;
};

inline const char* BuildType() {
#ifdef GALIGN_BUILD_TYPE_NAME
  // Stamped by bench/CMakeLists.txt from CMAKE_BUILD_TYPE — authoritative,
  // because the repo's Release flags ("-O3 -g") omit -DNDEBUG.
  return GALIGN_BUILD_TYPE_NAME;
#elif defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

}  // namespace galign_bench

#define GALIGN_BENCHMARK_MAIN()                                           \
  int main(int argc, char** argv) {                                       \
    bool galign_json = false;                                             \
    for (int i = 1; i < argc; ++i) {                                      \
      if (std::strcmp(argv[i], "--galign_print_build_type") == 0) {       \
        std::puts(::galign_bench::BuildType());                           \
        return 0;                                                         \
      }                                                                   \
      galign_json |=                                                      \
          std::strcmp(argv[i], "--benchmark_format=json") == 0;          \
    }                                                                     \
    benchmark::AddCustomContext("galign_build_type",                      \
                                ::galign_bench::BuildType());             \
    const char* galign_sha = std::getenv("GALIGN_GIT_SHA");               \
    benchmark::AddCustomContext("git_sha",                                \
                                galign_sha ? galign_sha : "unknown");     \
    benchmark::AddCustomContext(                                          \
        "pool_threads", std::to_string(::galign::ParallelismLevel()));    \
    ::benchmark::Initialize(&argc, argv);                                 \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;   \
    if (galign_json) {                                                    \
      ::galign_bench::StealStampedJsonReporter galign_reporter;           \
      ::benchmark::RunSpecifiedBenchmarks(&galign_reporter);              \
    } else {                                                              \
      ::benchmark::RunSpecifiedBenchmarks();                              \
    }                                                                     \
    return 0;                                                             \
  }
