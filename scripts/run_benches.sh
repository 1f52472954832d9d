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
# Stats records are written by each bench's own --stats=FILE;
# scripts/gate.py reruns the checked-in ones from their headers.
set -euo pipefail
cd "$(dirname "$0")/.."

flags=()
for arg in "$@"; do
  case "$arg" in
    --smoke) flags=(--smoke) ;;
    *) echo "usage: $0 [--smoke]" >&2; exit 2 ;;
  esac
done

for b in build/bench/fig* build/bench/ablation_* build/bench/taskbench \
         build/bench/collectives build/bench/scale build/bench/micro_*; do
  if [ ! -x "$b" ]; then
    continue
  fi
  echo "### $b"
  rc=0
  "$b" ${flags[@]+"${flags[@]}"} || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "### FAILED: $b (exit $rc)" >&2
    exit 1
  fi
done
