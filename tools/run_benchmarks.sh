#!/usr/bin/env bash
# Runs the perf benchmark suite (perf_pagerank, perf_cyclerank,
# perf_ppr_variants, the perf_result_cache cache-hit sweep, the
# perf_forward_push frontier-engine sweeps, and the perf_datastore
# storage-layer + spill-tier sweeps) with --benchmark_format=json and
# merges the results into one file, so the repo's perf trajectory is
# tracked PR over PR.
#
# Usage:
#   tools/run_benchmarks.sh OUT_JSON
#   tools/run_benchmarks.sh --smoke
#
#   OUT_JSON  where the merged results go; required outside --smoke, so a
#             run never overwrites a committed BENCH_*.json by default.
#   --smoke   CI mode: every suite runs with a minimal measurement time so
#             the binaries are exercised end-to-end (they cannot silently
#             rot), but no JSON is written and no numbers are meant to be
#             read — the CI runner's core count and noise make them
#             meaningless as perf evidence.
#
# Environment:
#   BUILD_DIR     build directory holding the bench binaries (default: build)
#   BENCH_FILTER  optional --benchmark_filter regex forwarded to every suite
#   BENCH_MIN_TIME optional --benchmark_min_time seconds
#                 (default: 0.5, or 0.01 under --smoke)
#   BENCH_REPS    optional --benchmark_repetitions; > 1 reports only the
#                 mean/median/stddev aggregates (recommended on noisy
#                 shared hosts, where single samples swing by >10%)
#   BENCH_SPILL_DIR optional root for the spill-tier benchmarks' scratch
#                 files (default: a fresh mktemp dir, removed on exit)
#
# The merged JSON carries a `single_core_host` flag: on a 1-CPU runner the
# thread sweeps measure parallel-engine *overhead bounds*, not scaling, and
# downstream tooling must not read them as speedup claims.
#
# Example (how the BENCH_PR<n>.json files at the root were written):
#   cmake -B build -S . && cmake --build build -j
#   tools/run_benchmarks.sh BENCH_PR<n>.json
set -euo pipefail

usage() {
  echo "usage: $0 OUT_JSON | $0 --smoke" >&2
  exit 2
}

cd "$(dirname "$0")/.."
BUILD_DIR=${BUILD_DIR:-build}
SMOKE=0
OUT=
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
  shift
  [[ $# -eq 0 ]] || usage
else
  [[ $# -eq 1 && -n "$1" && "$1" != -* ]] || usage
  OUT=$1
fi

# The spill-tier benchmarks write real files; point them at a per-run temp
# dir (honored via BENCH_SPILL_DIR in bench/perf_datastore.cc) so smoke runs
# on CI and local runs never collide or leave litter behind.
if [[ -z "${BENCH_SPILL_DIR:-}" ]]; then
  BENCH_SPILL_DIR=$(mktemp -d)
  export BENCH_SPILL_DIR
  SPILL_DIR_CLEANUP=1
fi
SUITES=(perf_pagerank perf_cyclerank perf_ppr_variants perf_result_cache
        perf_forward_push perf_datastore)
TMP_DIR=$(mktemp -d)
trap 'rm -rf "${TMP_DIR}"; [[ -n "${SPILL_DIR_CLEANUP:-}" ]] && rm -rf "${BENCH_SPILL_DIR}"' EXIT

for suite in "${SUITES[@]}"; do
  bin="${BUILD_DIR}/${suite}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built (cmake --build ${BUILD_DIR} -j)" >&2
    exit 1
  fi
  echo "== ${suite}" >&2
  if [[ "${SMOKE}" == 1 ]]; then
    # Console output only: the run is the artifact, not the numbers.
    args=("--benchmark_min_time=${BENCH_MIN_TIME:-0.01}")
    if [[ -n "${BENCH_FILTER:-}" ]]; then
      args+=("--benchmark_filter=${BENCH_FILTER}")
    fi
    "${bin}" "${args[@]}"
    continue
  fi
  args=(--benchmark_format=json "--benchmark_out=${TMP_DIR}/${suite}.json"
        --benchmark_out_format=json
        "--benchmark_min_time=${BENCH_MIN_TIME:-0.5}")
  if [[ -n "${BENCH_FILTER:-}" ]]; then
    args+=("--benchmark_filter=${BENCH_FILTER}")
  fi
  if [[ "${BENCH_REPS:-1}" -gt 1 ]]; then
    args+=("--benchmark_repetitions=${BENCH_REPS}"
           --benchmark_report_aggregates_only=true)
  fi
  "${bin}" "${args[@]}" >/dev/null
done

if [[ "${SMOKE}" == 1 ]]; then
  echo "bench smoke: OK (all suites ran; no JSON written)" >&2
  exit 0
fi

python3 - "${OUT}" "${TMP_DIR}" "${SUITES[@]}" <<'EOF'
import json, os, subprocess, sys

out_path, tmp_dir, *suites = sys.argv[1:]
merged = {"suites": {}}
for suite in suites:
    with open(f"{tmp_dir}/{suite}.json") as f:
        data = json.load(f)
    merged.setdefault("context", data.get("context", {}))
    merged["suites"][suite] = data.get("benchmarks", [])
cpus = os.cpu_count() or merged.get("context", {}).get("num_cpus", 0)
merged["host_cpus"] = cpus
merged["single_core_host"] = cpus <= 1
if merged["single_core_host"]:
    merged["thread_sweep_caveat"] = (
        "host exposes 1 CPU: Threads(2..8) rows bound the parallel engine's "
        "overhead, they are NOT scaling measurements")
try:
    merged["git_revision"] = subprocess.check_output(
        ["git", "rev-parse", "--short", "HEAD"], text=True).strip()
except Exception:
    pass
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
print(f"wrote {out_path}")
EOF
