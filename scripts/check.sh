#!/usr/bin/env bash
# Correctness gates (DESIGN.md §10), in fail-fast order:
#
#   lint  galign_lint project-contract scan (unchecked-status,
#         banned-nondeterminism, unbudgeted-alloc, layering DAG,
#         no-naked-throw) plus the flow-aware rules from DESIGN.md §14
#         (context-dropped, fault-site-audit, budget-discipline,
#         guarded-by) against the committed baseline, then shellcheck of
#         the shell entry points and a hard-failing clang-tidy pass over
#         src/ (skip with GALIGN_SKIP_CLANG_TIDY=1 on machines without
#         clang-tidy). galign_lint itself runs before any library build:
#         the lint binary is one dependency-free TU compiled directly
#         with g++.
#   asan  dedicated ASan+UBSan tree (build-sanitize/): crash-recovery,
#         fuzz-smoke, and low-budget gates, then the full suite. Any heap
#         error, UB, or leak fails the run.
#   tsan  dedicated ThreadSanitizer tree (build-tsan/): the race-stress
#         suite plus the parallel and kernel-equivalence suites, so the
#         parallel_for pool, MemoryBudget/MemoryTracker atomics,
#         CancelToken, fault-site registry, and the alignment server's
#         admission queue run under a race detector.
#   serve overload drill (DESIGN.md §12): export a small artifact with the
#         release galign_serve binary, then burst it at 16x queue capacity
#         — every request must resolve with a typed status (the binary's
#         own contract check is the exit code), plus the serve test suites.
#   swap  hot-swap chaos drill (DESIGN.md §13): under 16x burst the release
#         binary publishes good/torn/bit-flipped/fingerprint-tampered
#         generations; every response must be typed and correct for its
#         generation, every bad publication quarantined with a typed
#         reason. Plus a real exporter killed with SIGKILL mid-publish
#         followed by a --mode=health probe, and the swap, serve,
#         checkpoint and generation-store test suites.
#
# Usage: scripts/check.sh [--stage=lint|asan|tsan|serve|swap|all] [ctest-args...]
#   e.g. scripts/check.sh -R DivergenceRecovery
#        scripts/check.sh --stage=tsan
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

stage="all"
ctest_args=()
for a in "$@"; do
  case "$a" in
    --stage=*) stage="${a#--stage=}" ;;
    *) ctest_args+=("$a") ;;
  esac
done

run_lint_stage() {
  echo "=== lint gate (galign_lint: contracts + layering DAG) ==="
  local lint_bin="${repo_root}/build-tools/galign_lint"
  local lint_src="${repo_root}/tools/lint/galign_lint.cc"
  mkdir -p "${repo_root}/build-tools"
  if [ ! -x "${lint_bin}" ] || [ "${lint_src}" -nt "${lint_bin}" ]; then
    g++ -std=c++20 -O2 -Wall -Wextra -o "${lint_bin}" "${lint_src}"
  fi
  "${lint_bin}" --root "${repo_root}" \
    --baseline=tools/lint/lint_baseline.json

  if command -v shellcheck >/dev/null 2>&1; then
    echo "=== lint gate (shellcheck) ==="
    shellcheck "${repo_root}/scripts/check.sh" "${repo_root}/bench/run_all.sh"
  else
    echo "(shellcheck not installed; skipping shell lint)"
  fi

  # clang-tidy is a hard gate (checks pinned in .clang-tidy). Machines
  # without clang-tidy opt out explicitly with GALIGN_SKIP_CLANG_TIDY=1 —
  # a silent skip would let the gate rot the way the advisory one did.
  if [ "${GALIGN_SKIP_CLANG_TIDY:-0}" = "1" ]; then
    echo "(GALIGN_SKIP_CLANG_TIDY=1; skipping clang-tidy gate)"
  else
    if ! command -v run-clang-tidy >/dev/null 2>&1; then
      echo "clang-tidy gate: run-clang-tidy not found." >&2
      echo "Install clang-tidy, or set GALIGN_SKIP_CLANG_TIDY=1 to skip." >&2
      exit 1
    fi
    if [ ! -f "${repo_root}/build/compile_commands.json" ]; then
      echo "=== lint gate (clang-tidy: configuring for compile_commands) ==="
      cmake -B "${repo_root}/build" -S "${repo_root}" \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    fi
    echo "=== lint gate (clang-tidy, .clang-tidy config) ==="
    run-clang-tidy -quiet -p "${repo_root}/build" "src/.*\\.cc\$"
  fi
}

run_asan_stage() {
  local build_dir="${repo_root}/build-sanitize"
  cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGALIGN_SANITIZE=ON \
    -DGALIGN_NO_NATIVE=ON
  cmake --build "${build_dir}" -j "$(nproc)"

  # halt_on_error keeps one crashing test from flooding the log; detecting
  # leaks matters for the Result<T>/Status error paths exercised by the
  # io_hardening and failure_injection suites.
  export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

  # Crash-recovery gate (DESIGN.md §8): the kill-and-resume, torn-checkpoint,
  # and deadline-cancellation suites run first and explicitly, so a durability
  # regression fails loudly before the full sweep.
  echo "=== crash-recovery gate (ASan+UBSan) ==="
  ctest --test-dir "${build_dir}" --output-on-failure \
    -R "CheckpointResume|DurableIo|Cancellation"

  # Fuzz-smoke gate (DESIGN.md §9): a fixed-seed sanitized sweep of the
  # structure-aware fuzzer — hostile loader bytes, degenerate generator
  # recipes, and the full aligner roster under random budgets, deadlines,
  # and armed faults. Deterministic: failures replay with the printed seed.
  echo "=== fuzz-smoke gate (ASan+UBSan, fixed seed) ==="
  "${build_dir}/tests/fuzz/graph_fuzz" --seed 1337 --iters 60

  # Low-budget gate (DESIGN.md §9): the budget-degradation suite proves the
  # chunked fallback engages under a tight memory budget, stays under it,
  # and matches the dense run's Accuracy@1 within tolerance.
  echo "=== low-budget degradation gate (ASan+UBSan) ==="
  ctest --test-dir "${build_dir}" --output-on-failure \
    -R "BudgetDegradation|DegenerateConformance|MemoryBudget|MemoryScope"

  # ANN recall smoke gate (DESIGN.md §11): fixed-seed generator graphs run
  # end to end through ANN-routed aligners, measured against the exact
  # chunked oracle — the LSH index must hold the recall target, and the
  # degenerate/conformance sweep covers empty/single-node/k>=n inputs.
  echo "=== ANN recall smoke gate (ASan+UBSan) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -R "AnnRecall"

  echo "=== full suite (ASan+UBSan) ==="
  if [ "${#ctest_args[@]}" -gt 0 ]; then
    ctest --test-dir "${build_dir}" --output-on-failure "${ctest_args[@]}"
  else
    ctest --test-dir "${build_dir}" --output-on-failure
  fi
}

run_tsan_stage() {
  # Race gate (DESIGN.md §10): the concurrency machinery under
  # ThreadSanitizer. Scoped to the suites that exercise shared state —
  # RaceStress (pool, budget ledger, tracker gauge, cancel token, fault
  # registry), ParallelTest (parallel_for semantics), and the
  # kernel-equivalence GEMM suites (tile-parallel kernels, and the
  # row-parallel sparse-A product) — so the stage stays minutes, not hours,
  # under TSan's ~10x slowdown.
  local tsan_dir="${repo_root}/build-tsan"
  cmake -B "${tsan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGALIGN_TSAN=ON \
    -DGALIGN_NO_NATIVE=ON
  cmake --build "${tsan_dir}" -j "$(nproc)" \
    --target race_stress_test common_test la_ops_test

  echo "=== race gate (ThreadSanitizer) ==="
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    ctest --test-dir "${tsan_dir}" --output-on-failure \
    -R "RaceStress|ParallelTest|BlockedGemm|SparseGemm|GemmSizes|OpsTest"
}

run_serve_stage() {
  # Overload drill (DESIGN.md §12): the release binary publishes an
  # artifact and then gets burst at 16x its queue capacity. galign_serve
  # --mode=burst exits nonzero if any request resolved untyped or was lost,
  # so the serving contract is the exit code.
  local build_dir="${repo_root}/build"
  cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
  cmake --build "${build_dir}" -j "$(nproc)" \
    --target galign_serve serve_test serve_cli_test flag_validate_test

  echo "=== serve gate (artifact + admission-control tests) ==="
  ctest --test-dir "${build_dir}" --output-on-failure \
    -R "ServeTest|ServeCli|FlagValidate"

  echo "=== serve gate (16x overload drill, release binary) ==="
  local drill_dir
  drill_dir="$(mktemp -d)"
  trap 'rm -rf "${drill_dir}"' RETURN
  "${build_dir}/examples/galign_serve" --mode=export \
    --artifact-dir="${drill_dir}" --generate=80 --epochs=5 --dim=32
  "${build_dir}/examples/galign_serve" --mode=burst \
    --artifact-dir="${drill_dir}" --workers=2 --queue-capacity=8 \
    --clients=4 --load-multiple=16 --deadline-ms=2000 --mem-budget=256m
}

run_swap_stage() {
  # Hot-swap chaos drill (DESIGN.md §13): under 16x burst load the release
  # binary concurrently publishes good, torn, bit-flipped, and fingerprint-
  # tampered generations plus a simulated killed-exporter half-write.
  # galign_serve --mode=chaos exits nonzero if any response was untyped,
  # answered from a never-validated generation, or any bad publication is
  # missing its typed quarantine record — the swap contract is the exit
  # code. Then a real exporter is killed with SIGKILL mid-publish and
  # --mode=health must still report the store healthy: an atomic publish
  # leaves no damage a restart can see.
  local build_dir="${repo_root}/build"
  cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
  cmake --build "${build_dir}" -j "$(nproc)" \
    --target galign_serve swap_test serve_test checkpoint_resume_test \
    durable_io_test

  # The generation store (common/durable_io) carries checkpoints as well as
  # artifacts, so its own suite and the checkpoint suite run here too.
  echo "=== swap gate (quarantine + retention + generation tests) ==="
  ctest --test-dir "${build_dir}" --output-on-failure \
    -R "SwapTest|ServeTest|CheckpointResumeTest|DurableIoTest"

  echo "=== swap gate (hot-swap chaos drill, release binary, 16x burst) ==="
  local drill_dir
  drill_dir="$(mktemp -d)"
  trap 'rm -rf "${drill_dir}"' RETURN
  "${build_dir}/examples/galign_serve" --mode=export \
    --artifact-dir="${drill_dir}" --generate=80 --epochs=5 --dim=32
  "${build_dir}/examples/galign_serve" --mode=chaos \
    --artifact-dir="${drill_dir}" --workers=2 --queue-capacity=8 \
    --clients=4 --load-multiple=16 --rounds=2 --deadline-ms=2000 \
    --mem-budget=512m

  echo "=== swap gate (kill -9 a live exporter, then health-probe) ==="
  local kill_dir
  kill_dir="$(mktemp -d)"
  "${build_dir}/examples/galign_serve" --mode=export \
    --artifact-dir="${kill_dir}" --generate=60 --epochs=4 --dim=16
  # A second exporter dies mid-run: SIGKILL at a random point during
  # training/publish. Atomic publication means the store either gained a
  # complete generation 2 or nothing — never a half-generation the probe
  # (or a restarted server) would trust.
  "${build_dir}/examples/galign_serve" --mode=export \
    --artifact-dir="${kill_dir}" --generate=60 --epochs=4 --dim=16 \
    >/dev/null 2>&1 &
  local exporter_pid=$!
  sleep 0.3
  kill -9 "${exporter_pid}" 2>/dev/null || true
  wait "${exporter_pid}" 2>/dev/null || true
  "${build_dir}/examples/galign_serve" --mode=health \
    --artifact-dir="${kill_dir}"
  rm -rf "${kill_dir}"
}

case "${stage}" in
  lint) run_lint_stage ;;
  asan) run_asan_stage ;;
  tsan) run_tsan_stage ;;
  serve) run_serve_stage ;;
  swap) run_swap_stage ;;
  all)
    run_lint_stage
    run_asan_stage
    run_tsan_stage
    run_serve_stage
    run_swap_stage
    ;;
  *)
    echo "unknown --stage=${stage} (expected lint|asan|tsan|serve|swap|all)" >&2
    exit 2
    ;;
esac
