#!/usr/bin/env bash
# Release-forced bench run + regression gate.
#
#   scripts/bench.sh                 # run all suites, diff vs committed
#                                    # baselines, fail on >10% regressions
#   scripts/bench.sh --update        # run and overwrite the committed
#                                    # BENCH_*.json baselines (+ archive)
#   scripts/bench.sh --quick         # shorter runs (CI smoke)
#
# The bench binaries (bench/harness) link frame_release, compiled
# -O2 -DNDEBUG regardless of the top-level build type, and refuse to emit
# gated JSON from sanitized builds — so this script is safe to run from
# any build directory.  Baselines live at the repo root (BENCH_micro.json,
# BENCH_tcp.json); every fresh run is archived under
# results/history/<date>-<sha>/ for the trajectory record.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${FRAME_BUILD_DIR:-$repo/build}"
update=0
quick_flag=""
for arg in "$@"; do
  case "$arg" in
    --update) update=1 ;;
    --quick)  quick_flag="--quick" ;;
    *) echo "usage: scripts/bench.sh [--update] [--quick]" >&2; exit 2 ;;
  esac
done

cmake -B "$build_dir" -S "$repo" >/dev/null
cmake --build "$build_dir" -j "$(nproc)" \
    --target bench_all frame_bench_diff >/dev/null

run_dir="$(mktemp -d)"
trap 'rm -rf "$run_dir"' EXIT
echo "--- bench_all (release-forced) ---"
"$build_dir/bench/harness/bench_all" --out-dir="$run_dir" $quick_flag

sha="$(git -C "$repo" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
archive="$repo/results/history/$(date -u +%Y-%m-%d)-$sha"
mkdir -p "$archive"
cp "$run_dir"/BENCH_*.json "$archive/"
echo "archived to ${archive#"$repo"/}"

if [[ "$update" == "1" ]]; then
  cp "$run_dir"/BENCH_*.json "$repo/"
  echo "baselines updated: BENCH_micro.json BENCH_tcp.json"
  exit 0
fi

failed=0
for suite in micro tcp; do
  baseline="$repo/BENCH_$suite.json"
  fresh="$run_dir/BENCH_$suite.json"
  if [[ ! -f "$baseline" ]]; then
    echo "bench.sh: no committed baseline $baseline (run with --update)" >&2
    failed=1
    continue
  fi
  echo "--- diff: $suite ---"
  if ! "$build_dir/bench/harness/frame_bench_diff" "$baseline" "$fresh"; then
    failed=1
    echo "bench.sh: $suite regressed; reproduce with:" >&2
    echo "  $build_dir/bench/harness/bench_all --suite=$suite --out-dir=/tmp" >&2
    echo "  $build_dir/bench/harness/frame_bench_diff $baseline /tmp/BENCH_$suite.json" >&2
    echo "bench.sh: if the change is intentional: scripts/bench.sh --update" >&2
  fi
done

if [[ "$failed" != "0" ]]; then
  echo "bench.sh: FAILED (gated regression past threshold)" >&2
  exit 1
fi
echo "bench.sh: OK"
