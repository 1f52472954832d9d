#!/usr/bin/env bash
# Full-run record gate: for every record under bench_stats/full/
# (BENCH_<bench>.json), reruns build/bench/<bench> at full size into DIR and
# `cmp`s the result against the checked-in copy.  These are the records the
# `claims` ctest label reads, so a change that moves a claimed figure must
# regenerate them on purpose.  A record that differs is named with its
# top-level keys whose values differ.  Needs a built build/ tree and python3.
#
# Usage: scripts/gate_full.sh DIR
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -ne 1 ]; then
  echo "usage: $0 DIR" >&2
  exit 2
fi
dir="$1"
mkdir -p "$dir"
if [ "$(cd "$dir" && pwd -P)" = "$(cd bench_stats/full && pwd -P)" ]; then
  echo "gate_full.sh: DIR must not be bench_stats/full/ (the baselines)" >&2
  exit 2
fi

fails=0
for f in bench_stats/full/BENCH_*.json; do
  name="$(basename "$f" .json)"
  name="${name#BENCH_}"
  echo "### build/bench/$name"
  "./build/bench/$name" --stats="$dir/BENCH_$name.json" > /dev/null
  cmp -s "$f" "$dir/BENCH_$name.json" || {
    echo "DIFFERS: $f [$(python3 scripts/differing_keys.py "$f" "$dir/BENCH_$name.json")]" >&2
    fails=$((fails + 1))
  }
done
if [ "$fails" -ne 0 ]; then
  echo "gate_full.sh: $fails full-run record(s) differ from bench_stats/full/" >&2
  exit 1
fi
echo "gate_full.sh: all full-run records byte-identical to bench_stats/full/"
