#!/usr/bin/env python3
"""Record gate: reruns the bench behind each checked-in stats record and
`cmp`s the new file with the record.

A charmlike-stats record names its own run in its header: "bench", "smoke"
and, for a --metrics run, "metrics_interval".  For each RECORD this runs
build/bench/<bench> --stats=OUT/<basename of RECORD>, adding --smoke and
--metrics=<metrics_interval> as the header says.  A record that differs is
named with its top-level keys whose values differ, e.g.
`DIFFERS: bench_stats/BENCH_fig08_amr.json [events, phases]`.  A record of
another schema (BENCH_micro.json holds host times) is skipped.  Exits 1 when
a record differs or a bench exits nonzero, 2 on bad usage.

Usage: scripts/gate.py OUT RECORD...
  scripts/gate.py stats_regen bench_stats/BENCH_*.json bench_stats/metrics/*.json
  scripts/gate.py full_regen bench_stats/full/BENCH_*.json
"""
import filecmp
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def changed_keys(old, new):
    """The top-level keys whose values differ, in OLD's key order."""
    missing = object()
    keys = list(old) + [k for k in new if k not in old]
    return ", ".join(k for k in keys if old.get(k, missing) != new.get(k, missing)) \
        or "same values, different bytes"


def main(out, records):
    baselines = ROOT / "bench_stats"
    out = Path(out).resolve()
    if out == baselines or baselines in out.parents:
        print("gate.py: OUT must not be under bench_stats/ (the baselines)", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    checked = fails = 0
    for record in records:
        with open(record) as f:
            head = json.load(f)
        if head.get("schema") != "charmlike-stats":
            print(f"skipped: {record} (schema {head.get('schema')})")
            continue
        new = out / Path(record).name
        cmd = [ROOT / "build" / "bench" / head["bench"], f"--stats={new}"]
        if head["smoke"]:
            cmd.append("--smoke")
        if "metrics_interval" in head:
            cmd.append(f"--metrics={head['metrics_interval']!r}")
        print(f"### build/bench/{head['bench']}", *cmd[2:], flush=True)
        checked += 1
        rc = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
        if rc != 0:
            print(f"FAILED: {record}: {head['bench']} exited {rc}", file=sys.stderr)
            fails += 1
        elif not filecmp.cmp(record, new, shallow=False):
            with open(new) as f:
                print(f"DIFFERS: {record} [{changed_keys(head, json.load(f))}]",
                      file=sys.stderr)
            fails += 1
    if fails:
        print(f"gate.py: {fails} record(s) differ or failed to regenerate", file=sys.stderr)
        return 1
    print(f"gate.py: all {checked} record(s) byte-identical")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        print("usage: scripts/gate.py OUT RECORD...", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2:]))
