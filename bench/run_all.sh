#!/usr/bin/env bash
# Regenerates every paper table/figure (quick mode by default). Pass --full
# for paper-scale sizes, --extended for the extra-baselines roster, and/or
# --csv=<prefix> to also dump CSV series for plotting. Extra flags are
# forwarded to every bench binary.
#
# Crash safety: with --resume each bench persists every finished
# table/figure cell to bench_state/<bench>/ through atomic, CRC-checksummed
# writes. Killing the sweep (Ctrl-C, OOM, power loss) and re-running the
# same command replays the finished cells from disk and computes only the
# missing ones; torn cell files fail their checksum and are recomputed.
# --budget=<seconds> additionally deadlines each cell so no single method
# can stall the sweep — over-budget cells report their best-so-far result.
#
#   ./bench/run_all.sh                      # quick sweep (~10 min)
#   ./bench/run_all.sh --full --runs=5      # paper-scale, averaged
#   ./bench/run_all.sh --resume             # resumable sweep (re-run after
#                                           # a crash to pick up where it died)
#   ./bench/run_all.sh --resume --budget=60 # ...with a 60 s per-cell cap
set -u
BENCH_DIR="$(dirname "$0")/../build/bench"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
ARGS=("$@")

# Recorded BENCH_*.json snapshots carry provenance (bench/gbench_main.h):
# the galign build flavor, the git SHA below, the pool's thread count and
# host_steal_s, the host steal measured over the recording run, land in the
# JSON context.
GALIGN_GIT_SHA="$(git -C "${REPO_ROOT}" describe --always --dirty 2>/dev/null \
  || echo unknown)"
export GALIGN_GIT_SHA

# Refuse to (over)write perf snapshots from a non-release tree: a debug
# recording would poison the cross-PR perf trajectory. The stamp is read
# back from the binary itself, not from the build cache, so a stale
# reconfigure can't lie about what was actually compiled.
build_type_of() {
  "$1" --galign_print_build_type 2>/dev/null || echo missing
}

record_json() {
  # record_json <binary> <output.json> [extra bench args...]
  local bin="$1" out="$2"
  shift 2
  local flavor
  flavor="$(build_type_of "${bin}")"
  if [ "${flavor}" != "release" ] && [ "${flavor}" != "relwithdebinfo" ]; then
    echo "(REFUSED: $(basename "${bin}") is a '${flavor:-unknown}' build;" \
         "rebuild with CMAKE_BUILD_TYPE=Release to record $(basename "${out}"))"
    return 1
  fi
  "${bin}" "$@" --benchmark_format=json > "${out}.tmp" \
    && mv "${out}.tmp" "${out}"
}

# Give every bench its own state dir so --resume sweeps stay tidy.
RESUME=0
for a in "$@"; do
  [ "$a" = "--resume" ] && RESUME=1
done

for b in \
    bench_table3_end_to_end \
    bench_table4_ablation \
    bench_table5_layer_weights \
    bench_fig3_structural_noise \
    bench_fig4_attribute_noise \
    bench_fig5_isomorphic_level \
    bench_fig6_gcn_layers \
    bench_fig7_embedding_dim \
    bench_fig8_qualitative \
    bench_scalability \
    bench_hyperparams; do
  echo "### $b"
  EXTRA=()
  if [ "$RESUME" = 1 ]; then
    EXTRA=("--state-dir=${REPO_ROOT}/bench_state/${b}")
  fi
  # ${arr[@]+...} guards: expanding an empty array under `set -u` is an
  # error on older bash; the guard expands to nothing instead.
  "${BENCH_DIR}/${b}" ${ARGS[@]+"${ARGS[@]}"} ${EXTRA[@]+"${EXTRA[@]}"} \
    || echo "(FAILED: $b)"
  echo
done

echo "### bench_kernels"
"${BENCH_DIR}/bench_kernels" --benchmark_min_time=0.2 || echo "(FAILED: bench_kernels)"

# Machine-readable kernel numbers at the repo root, seeding the perf
# trajectory across PRs (BM_*Reference entries are the retained naive
# kernels, so each snapshot carries its own before/after ratio).
echo "### bench_kernels (json -> BENCH_kernels.json)"
record_json "${BENCH_DIR}/bench_kernels" "${REPO_ROOT}/BENCH_kernels.json" \
    --benchmark_min_time=0.2 \
  || echo "(FAILED: bench_kernels json)"

# ANN retrieval layer (DESIGN.md §11): build cost, recall-vs-QPS sweeps,
# and the headline ANN-routed vs exact AlignTopK speedup at 20k nodes.
echo "### bench_ann (json -> BENCH_ann.json)"
record_json "${BENCH_DIR}/bench_ann" "${REPO_ROOT}/BENCH_ann.json" \
    --benchmark_min_time=0.2 \
  || echo "(FAILED: bench_ann json)"

# Serving layer (DESIGN.md §12): overload bursts at 1x/4x/16x queue
# capacity — p50/p99 of answered requests, QPS, and the typed shed count
# at each offered load.
echo "### bench_serving (json -> BENCH_serving.json)"
record_json "${BENCH_DIR}/bench_serving" "${REPO_ROOT}/BENCH_serving.json" \
    --benchmark_min_time=0.2 \
  || echo "(FAILED: bench_serving json)"
