#!/usr/bin/env python3
"""Converts google-benchmark --benchmark_out JSON into a charmlike-microbench
stats record (bench_stats/BENCH_micro.json) and optionally gates it.

The micro suite measures HOST wall-clock throughput of the emulator, so its
numbers change run to run (unlike the byte-deterministic "charmlike-stats"
records).  The record keeps what a reader needs: cpu count, nominal MHz,
build type, per-benchmark rates and counters, in the single-line canonical
byte form the other stats files use.  This converter owns the schema: the
record's shape (iterations >= 1, times >= 0 in a known unit, numeric
counters, whole non-negative payload_pool_* counts) is checked before it is
written, and a malformed record exits 1 without writing.  So does a run of a
charmlike build that is not Release: build_type is the charmlike_build_type
context value micro_runtime records from CMAKE_BUILD_TYPE (google-benchmark's
own library_build_type is how the system libbenchmark was built).

Gates (each fails with exit 1):
  --gate NAME=RATE  items_per_second below the floor.  CI's floors sit an
      order of magnitude under typical rates, so only a real hot-path
      regression trips them, not shared-runner noise.
  --gate-max NAME/COUNTER=MAX  counter above the ceiling.  Structural byte
      accounting (BM_SparseFootprint's mem_bytes_per_*) is deterministic
      across hosts, so those ceilings sit close to the measured values;
      host-time ceilings (us_per_round) get rate-floor headroom.  Benchmark
      names may contain '/' arg suffixes; the counter follows the LAST '/'.
  --gate-ratio NAME/COUNTER,REF/COUNTER=MAX  first counter above MAX times
      the second, both from the same run, so the ratio is robust to runner
      speed ("incremental LB round >= 5x cheaper than a rebuild": 0.2).
"""
import argparse
import json
import sys

SCHEMA = "charmlike-microbench"
VERSION = 1

# Per-benchmark keys worth keeping, in emission order.  Everything else in
# the google-benchmark record (run_name, repetitions, threads, ...) is noise
# for this suite's single-threaded, single-repetition runs.
RUN_KEYS = ["iterations", "real_time", "cpu_time", "time_unit",
            "items_per_second", "bytes_per_second"]
TIME_UNITS = ("ns", "us", "ms", "s")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def convert(raw):
    ctx = raw.get("context", {})
    benchmarks = []
    for b in raw.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # aggregates only appear with --benchmark_repetitions
        entry = {"name": b["name"]}
        for k in RUN_KEYS:
            if k in b:
                entry[k] = b[k]
        counters = {k: v for k, v in sorted(b.items())
                    if k not in entry and k not in
                    ("run_name", "run_type", "family_index",
                     "per_family_instance_index", "repetitions",
                     "repetition_index", "threads", "aggregate_name",
                     "aggregate_unit", "label")
                    and is_number(v)}
        if counters:
            entry["counters"] = counters
        benchmarks.append(entry)
    return {
        "schema": SCHEMA,
        "version": VERSION,
        "bench": "micro_runtime",
        "smoke": False,
        "context": {
            "num_cpus": ctx.get("num_cpus", 0),
            "mhz_per_cpu": ctx.get("mhz_per_cpu", 0),
            "build_type": ctx.get("charmlike_build_type", "unknown"),
        },
        "benchmarks": benchmarks,
    }


def shape_errors(doc):
    errors = [] if doc["benchmarks"] else ["no benchmarks"]
    if doc["context"]["build_type"] != "Release":
        errors.append(f"build_type {doc['context']['build_type']!r} is not "
                      f"Release; host timings only count from Release builds")
    for b in doc["benchmarks"]:
        name = b["name"]
        if not isinstance(b.get("iterations"), int) or b["iterations"] < 1:
            errors.append(f"{name}: iterations {b.get('iterations')!r} < 1")
        for k in ("real_time", "cpu_time"):
            v = b.get(k)
            if not is_number(v) or v < 0:
                errors.append(f"{name}: {k} {v!r} is not a time >= 0")
        if b.get("time_unit") not in TIME_UNITS:
            errors.append(f"{name}: unknown time_unit {b.get('time_unit')!r}")
        for k, v in b.get("counters", {}).items():
            if not is_number(v):
                errors.append(f"{name}: counter {k} {v!r} is not numeric")
            elif k.startswith("payload_pool_") and (
                    v < 0 or not float(v).is_integer()):
                errors.append(f"{name}: counter {k} {v!r} is not a "
                              f"non-negative integer")
    return errors


def apply_gates(doc, gates, max_gates, ratio_gates):
    """Prints one line per gate; returns how many failed or were missing."""
    rates = {b["name"]: b.get("items_per_second") for b in doc["benchmarks"]}
    counters = {b["name"]: b.get("counters", {}) for b in doc["benchmarks"]}
    # (label, measured value or None when missing, limit, is_floor)
    checks = [(f"gate {name} items/s", rates.get(name), floor, True)
              for name, floor in gates]
    checks += [(f"gate-max {name}/{counter}", counters.get(name, {}).get(counter),
                ceiling, False) for name, counter, ceiling in max_gates]
    for (name, counter), (rname, rcounter), max_ratio in ratio_gates:
        value = counters.get(name, {}).get(counter)
        ref = counters.get(rname, {}).get(rcounter)
        checks.append((f"gate-ratio {name}/{counter} / {rname}/{rcounter}",
                       value / ref if value is not None and ref else None,
                       max_ratio, False))
    bad = 0
    for label, value, limit, is_floor in checks:
        op = ">=" if is_floor else "<="
        if value is not None and (value >= limit if is_floor else value <= limit):
            print(f"{label}: {value:g} {op} {limit:g} OK")
        else:
            bad += 1
            shown = "missing" if value is None else f"{value:g}"
            print(f"{label}: {shown} violates {op} {limit:g}", file=sys.stderr)
    return bad


def gate_spec(spec):
    """NAME=VALUE; argparse reports a malformed spec (exit 2)."""
    name, sep, value = spec.rpartition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {spec!r}")
    return name, float(value)


def max_spec(spec):
    """NAME/COUNTER=MAX.  Benchmark names can themselves contain '/' (arg
    suffixes like BM_LbAssign_Refine/100000); the counter is the last
    component."""
    target, ceiling = gate_spec(spec)
    if "/" not in target:
        raise argparse.ArgumentTypeError(f"expected NAME/COUNTER=MAX, got {spec!r}")
    return (*target.rsplit("/", 1), ceiling)


def ratio_spec(spec):
    """NAME/COUNTER,REF/COUNTER=MAX."""
    targets, max_ratio = gate_spec(spec)
    left, sep, right = targets.partition(",")
    if not sep or "/" not in left or "/" not in right:
        raise argparse.ArgumentTypeError(
            f"expected NAME/COUNTER,REF/COUNTER=MAX, got {spec!r}")
    return tuple(left.rsplit("/", 1)), tuple(right.rsplit("/", 1)), max_ratio


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("raw", help="google-benchmark --benchmark_out JSON")
    ap.add_argument("out", help="charmlike-microbench record to write")
    ap.add_argument("--gate", type=gate_spec, action="append", default=[],
                    metavar="NAME=RATE")
    ap.add_argument("--gate-max", type=max_spec, action="append", default=[],
                    metavar="NAME/COUNTER=MAX")
    ap.add_argument("--gate-ratio", type=ratio_spec, action="append",
                    default=[], metavar="NAME/COUNTER,REF/COUNTER=MAX")
    args = ap.parse_args(argv[1:])
    with open(args.raw) as f:
        raw = json.load(f)
    doc = convert(raw)
    errors = shape_errors(doc)
    for e in errors:
        print(f"{args.raw}: {e}", file=sys.stderr)
    if errors:
        return 1
    with open(args.out, "w") as f:
        json.dump(doc, f, separators=(",", ":"))
        f.write("\n")
    print(f"{args.out}: {len(doc['benchmarks'])} benchmarks")
    return 1 if apply_gates(doc, args.gate, args.gate_max, args.gate_ratio) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
