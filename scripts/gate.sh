#!/usr/bin/env bash
# Stats byte-identity gate: regenerates every byte-deterministic stats record
# into DIR -- each smoke bench (run_benches.sh --smoke --stats=DIR) plus
# fig10_leanmd_ckpt --smoke --metrics=2e-4 into DIR/metrics/ -- and `cmp`s
# each against its checked-in copy under bench_stats/.  A record that
# differs is named with its top-level keys whose values differ, e.g.
# `DIFFERS: bench_stats/BENCH_fig08_amr.json [events, phases]`.
# BENCH_micro.json (host wall-clock) is skipped; a record without a baseline
# fails too.  Needs a built build/ tree and python3.
#
# Usage: scripts/gate.sh DIR
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 1 ]; then
  echo "usage: $0 DIR" >&2
  exit 2
fi
dir="$1"
mkdir -p "$dir/metrics"
if [ "$(cd "$dir" && pwd -P)" = "$(cd bench_stats && pwd -P)" ]; then
  echo "gate.sh: DIR must not be bench_stats/ (the baselines)" >&2
  exit 2
fi

./scripts/run_benches.sh --smoke --stats="$dir"
./build/bench/fig10_leanmd_ckpt --smoke --metrics=2e-4 \
  --stats="$dir/metrics/fig10_leanmd_ckpt.json" > /dev/null

fails=0
for f in bench_stats/BENCH_*.json bench_stats/metrics/*.json; do
  case "$f" in *BENCH_micro.json) continue ;; esac
  new="$dir/${f#bench_stats/}"
  cmp -s "$f" "$new" || {
    echo "DIFFERS: $f [$(python3 scripts/differing_keys.py "$f" "$new")]" >&2
    fails=$((fails + 1))
  }
done
for f in "$dir"/BENCH_*.json "$dir"/metrics/*.json; do
  case "$f" in *BENCH_micro.json) continue ;; esac
  [ -e "bench_stats/${f#"$dir"/}" ] || { echo "NO BASELINE: $f" >&2; fails=$((fails + 1)); }
done
if [ "$fails" -ne 0 ]; then
  echo "gate.sh: $fails stats record(s) differ from or are missing in bench_stats/" >&2
  exit 1
fi
echo "gate.sh: all stats records byte-identical to bench_stats/"
