#!/usr/bin/env bash
# Runs every figure-reproduction bench, the taskbench, collectives and scale
# sweeps, and the micro-benchmarks (every executable under build/bench/),
# printing their tables to stdout.  Fails fast: the first bench that exits
# nonzero stops the run and is named on stderr.
#
# --smoke runs each figure binary in its reduced configuration (tiny PE
# sweeps, few steps); micro_* binaries get a minimal-time google-benchmark
# run instead.
#
# --stats[=DIR] also writes DIR/BENCH_<name>.json (default DIR: bench_stats)
# from every figure/ablation/sweep binary -- the records EXPERIMENTS.md
# quotes; validate with `build/tools/statsview check`, inspect or diff with
# build/tools/statsview.  The micro suite's google-benchmark JSON is converted
# by scripts/micro_to_stats.py into DIR/BENCH_micro.json, the one record that
# is NOT byte-deterministic; a build that is not Release writes no
# BENCH_micro.json (host timings only count from Release builds).
# scripts/gate.sh regenerates the smoke records and compares them with
# bench_stats/.
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=0
stats_dir=""
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke=1 ;;
    --stats) stats_dir="bench_stats" ;;
    --stats=*) stats_dir="${arg#--stats=}" ;;
    *) echo "usage: $0 [--smoke] [--stats[=DIR]]" >&2; exit 2 ;;
  esac
done
if [ -n "$stats_dir" ]; then
  mkdir -p "$stats_dir"
fi

for b in build/bench/fig* build/bench/ablation_* build/bench/taskbench \
         build/bench/collectives build/bench/scale build/bench/micro_*; do
  if [ ! -x "$b" ]; then
    continue
  fi
  echo "### $b"
  name="$(basename "$b")"
  case "$name" in
    micro_*)
      args=()
      if [ "$smoke" -eq 1 ]; then
        args+=(--benchmark_min_time=0.01)
      fi
      if [ -n "$stats_dir" ]; then
        args+=(--benchmark_out="$stats_dir/raw_${name}.json"
               --benchmark_out_format=json)
      fi
      ;;
    *)
      args=()
      if [ "$smoke" -eq 1 ]; then
        args+=(--smoke)
      fi
      if [ -n "$stats_dir" ]; then
        args+=(--stats="$stats_dir/BENCH_${name}.json")
      fi
      ;;
  esac
  rc=0
  "$b" ${args[@]+"${args[@]}"} || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "### FAILED: $b (exit $rc)" >&2
    exit 1
  fi
  if [ -n "$stats_dir" ]; then
    case "$name" in
      micro_*)
        # One micro suite today, so the record keeps the stable name
        # BENCH_micro.json rather than BENCH_${name}.json.
        raw="$stats_dir/raw_${name}.json"
        build_type="$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["context"].get("charmlike_build_type", ""))' "$raw")"
        if [ "$build_type" != "Release" ]; then
          echo "### $name: '$build_type' build, not Release: BENCH_micro.json not written"
          rm -f "$raw"
          continue
        fi
        micro_args=()
        if [ "$smoke" -eq 1 ]; then
          micro_args+=(--smoke)
        fi
        rc=0
        python3 scripts/micro_to_stats.py "$raw" "$stats_dir/BENCH_micro.json" \
          ${micro_args[@]+"${micro_args[@]}"} || rc=$?
        rm -f "$raw"
        if [ "$rc" -ne 0 ]; then
          echo "### FAILED: micro_to_stats.py for $name (exit $rc)" >&2
          exit 1
        fi
        ;;
    esac
  fi
done
