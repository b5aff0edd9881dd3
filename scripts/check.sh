#!/usr/bin/env bash
# Configure, build, and run the full test suite in one step.
#
#   scripts/check.sh                 # plain build into build/
#   FRAME_SANITIZE=thread scripts/check.sh     # TSan build into build-tsan/
#   FRAME_SANITIZE=address scripts/check.sh    # ASan+UBSan into build-asan/
#   FRAME_SANITIZE=undefined scripts/check.sh  # UBSan into build-ubsan/
#   FRAME_CHAOS=1 scripts/check.sh   # chaos suite under ASan and TSan
#   FRAME_BENCH=1 scripts/check.sh   # + release bench run diffed against
#                                    #   the committed BENCH_*.json baselines
#
# Extra arguments are forwarded to ctest, e.g.
#   scripts/check.sh -R Obs          # only the observability tests
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
sanitize="${FRAME_SANITIZE:-}"

# Bench mode: run the release-forced suites and gate on >10% regressions
# vs the committed baselines.  Delegated to scripts/bench.sh, which prints
# the reproducing commands when a series regresses.
if [[ "${FRAME_BENCH:-0}" == "1" ]]; then
  "$repo/scripts/bench.sh" "$@"
  exit 0
fi

# Chaos mode: build the chaos suite under both ASan(+UBSan) and TSan and
# run it with fixed seeds, so every scheduled fault scenario is exercised
# with memory and race checking.  Seeds can be widened via FRAME_CHAOS_SEED.
# Every scenario runs at FRAME_SHARDS=1 (the pre-sharding broker) and
# FRAME_SHARDS=4 (partitioned hot path), and the TSan build additionally
# runs the sharded-runtime and MPSC-ring suites — the lock-free hand-off
# and the shard lanes are exactly what TSan exists to certify.
if [[ "${FRAME_CHAOS:-0}" == "1" ]]; then
  for sanitize in address thread; do
    build_dir="$repo/build-$([[ $sanitize == address ]] && echo asan || echo tsan)"
    cmake -B "$build_dir" -S "$repo" -DFRAME_SANITIZE="$sanitize"
    cmake --build "$build_dir" -j "$(nproc)" --target test_chaos
    for shards in 1 4; do
      echo "--- chaos suite under $sanitize sanitizer (FRAME_SHARDS=$shards) ---"
      FRAME_SHARDS=$shards "$build_dir/tests/test_chaos" "$@"
    done
  done
  tsan_dir="$repo/build-tsan"
  cmake --build "$tsan_dir" -j "$(nproc)" --target test_runtime test_common
  echo "--- sharded runtime under TSan (FRAME_SHARDS=4) ---"
  FRAME_SHARDS=4 "$tsan_dir/tests/test_runtime" --gtest_filter='ShardedRuntime*'
  echo "--- MPSC ring stress under TSan ---"
  "$tsan_dir/tests/test_common" --gtest_filter='MpscRing*'
  echo "chaos suite: OK"
  exit 0
fi

case "$sanitize" in
  "")        build_dir="$repo/build" ;;
  thread)    build_dir="$repo/build-tsan" ;;
  address)   build_dir="$repo/build-asan" ;;
  undefined) build_dir="$repo/build-ubsan" ;;
  *) echo "error: FRAME_SANITIZE must be empty, 'thread', 'address', or" \
          "'undefined'" >&2
     exit 2 ;;
esac

cmake -B "$build_dir" -S "$repo" -DFRAME_SANITIZE="$sanitize"
cmake --build "$build_dir" -j "$(nproc)"
# Shard matrix: the runtime tests construct EdgeSystems with shards=0
# (auto), which resolves through FRAME_SHARDS — so one binary covers both
# the pre-sharding broker and the partitioned hot path.
for shards in 1 4; do
  echo "--- test suite with FRAME_SHARDS=$shards ---"
  FRAME_SHARDS=$shards \
      ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" "$@"
done

# Smoke test: the real TCP wire path end to end (publish -> broker ->
# subscriber over loopback sockets through the epoll reactor).
echo "--- tcp_wire_demo smoke test ---"
"$build_dir/examples/tcp_wire_demo" >/dev/null
echo "tcp_wire_demo: OK"

# Smoke test: live telemetry endpoint plus the trace stitch pipeline.
# frame_stats --serve prints TELEMETRY_PORT=N before the scenario starts;
# scrape /metrics and /healthz mid-run, then stitch the dump it wrote into
# Perfetto JSON and check the file parses.
echo "--- telemetry + stitch smoke test ---"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
"$build_dir/examples/frame_stats" --serve \
    --trace-out "$smoke_dir/edge.trace" \
    >"$smoke_dir/stats.out" 2>/dev/null &
stats_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^TELEMETRY_PORT=\([0-9]*\)$/\1/p' "$smoke_dir/stats.out")"
  [[ -n "$port" ]] && break
  sleep 0.05
done
if [[ -z "$port" ]]; then
  echo "error: frame_stats --serve never announced a telemetry port" >&2
  kill "$stats_pid" 2>/dev/null || true
  exit 1
fi
curl -sf "http://127.0.0.1:$port/metrics" \
    | grep -q '^frame_trace_dropped_total ' \
    || { echo "error: /metrics missing frame_trace_dropped_total" >&2; exit 1; }
curl -sf "http://127.0.0.1:$port/healthz" | grep -q '"status"' \
    || { echo "error: /healthz missing status field" >&2; exit 1; }
wait "$stats_pid"
"$build_dir/examples/frame_analyze" --stitch "$smoke_dir/edge.trace" \
    --perfetto "$smoke_dir/edge.perfetto.json" >/dev/null
python3 -c "import json,sys; json.load(open(sys.argv[1]))" \
    "$smoke_dir/edge.perfetto.json"
echo "telemetry + stitch: OK"

# Smoke test: SLO alerts + flight recorder end to end.  frame_stats --serve
# crashes its Primary mid-run; with FRAME_POSTMORTEM_DIR armed the failover
# trigger must freeze exactly one post-mortem bundle, /alerts must serve the
# evaluated rule table, /healthz must flip to 503 while the promoted Backup
# serves without a live peer, and frame_analyze --postmortem must be able to
# read the bundle back.
echo "--- flight recorder + SLO alerts smoke test ---"
pm_dir="$smoke_dir/postmortem"
mkdir -p "$pm_dir"
FRAME_POSTMORTEM_DIR="$pm_dir" "$build_dir/examples/frame_stats" --serve \
    >"$smoke_dir/slo.out" 2>/dev/null &
slo_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^TELEMETRY_PORT=\([0-9]*\)$/\1/p' "$smoke_dir/slo.out")"
  [[ -n "$port" ]] && break
  sleep 0.05
done
if [[ -z "$port" ]]; then
  echo "error: frame_stats --serve (flight recorder run) announced no port" >&2
  kill "$slo_pid" 2>/dev/null || true
  exit 1
fi
curl -sf "http://127.0.0.1:$port/alerts" | grep -q '"alerts"' \
    || { echo "error: /alerts missing alert table" >&2; exit 1; }
curl -sf "http://127.0.0.1:$port/slo.json" | grep -q '"topics"' \
    || { echo "error: /slo.json missing topics" >&2; exit 1; }
health_503=""
for _ in $(seq 1 200); do
  code="$(curl -s -o "$smoke_dir/healthz.json" -w '%{http_code}' \
      "http://127.0.0.1:$port/healthz" || true)"
  if [[ "$code" == "503" ]]; then health_503=yes; break; fi
  sleep 0.05
done
if [[ -z "$health_503" ]]; then
  echo "error: /healthz never returned 503 after the scripted crash" >&2
  kill "$slo_pid" 2>/dev/null || true
  exit 1
fi
grep -q '"reason"' "$smoke_dir/healthz.json" \
    || { echo "error: 503 /healthz body carries no reason" >&2; exit 1; }
wait "$slo_pid"
bundle_count="$(find "$pm_dir" -maxdepth 1 -type d -name 'frame-postmortem-*' \
    | wc -l)"
if [[ "$bundle_count" != "1" ]]; then
  echo "error: expected exactly 1 post-mortem bundle, found $bundle_count" >&2
  exit 1
fi
bundle="$(find "$pm_dir" -maxdepth 1 -type d -name 'frame-postmortem-*')"
grep -q '^frame-postmortem v1$' "$bundle/manifest.txt" \
    || { echo "error: bundle manifest missing magic" >&2; exit 1; }
"$build_dir/examples/frame_analyze" --postmortem "$bundle" >/dev/null \
    || { echo "error: frame_analyze --postmortem rejected the bundle" >&2
         exit 1; }

# Fatal-signal path: SIGSEGV must leave an async-signal-safe crash record
# (pre-formatted at arm time; the handler only open/write/closes).
FRAME_POSTMORTEM_DIR="$pm_dir" "$build_dir/examples/frame_stats" --serve \
    >"$smoke_dir/crash.out" 2>/dev/null &
crash_pid=$!
for _ in $(seq 1 100); do
  grep -q '^TELEMETRY_PORT=' "$smoke_dir/crash.out" && break
  sleep 0.05
done
kill -SEGV "$crash_pid" 2>/dev/null || true
wait "$crash_pid" 2>/dev/null || true
grep -q '^frame-crash-record v1$' "$pm_dir/crash-record.txt" \
    || { echo "error: SIGSEGV left no crash record" >&2; exit 1; }
grep -q '^signo 011$' "$pm_dir/crash-record.txt" \
    || { echo "error: crash record signo not patched" >&2; exit 1; }
echo "flight recorder + SLO alerts: OK"

# Smoke test: every bench_all case runs and writes a document the differ
# reads.  --force-ungated lets sanitizer builds write theirs too; a document
# diffed against itself must exit 0.
echo "--- bench_all smoke test ---"
"$build_dir/bench/harness/bench_all" --quick --force-ungated \
    --out-dir="$smoke_dir" >/dev/null \
    || { echo "error: bench_all exited non-zero" >&2; exit 1; }
for suite in micro tcp; do
  doc="$smoke_dir/BENCH_$suite.json"
  "$build_dir/bench/harness/frame_bench_diff" "$doc" "$doc" >/dev/null \
      || { echo "error: frame_bench_diff rejected $suite's document" >&2
           exit 1; }
done
echo "bench_all: OK"

# Smoke test: the benchmark builds src/ with its own CMake and reaches it
# only through public names, so a src/ change that breaks that build or a
# workload's output checks fails here, before a benchmark run does.
# failover_cycles stays out: a host stall can fail it spuriously.
for workload in table2_tcp broker_saturate; do
  echo "--- framebench $workload smoke test ---"
  (cd "$repo" && python3 framebench/run.py --workload "$workload" --seed 1 \
      --seconds 3 --trace 0 >/dev/null) \
      || { echo "error: framebench $workload exited non-zero" >&2; exit 1; }
  echo "framebench $workload: OK"
done
