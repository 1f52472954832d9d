#!/usr/bin/env python3
"""The benchmark's own tests: every failure check must trip.

Builds perfbench like run.py does, then runs single repetitions at the sizes
the benchmark measures (about a dozen, 10-20 s in all):
  * each workload, unmodified, reproduces its recorded seed-1 digest (the
    checks do not fire spuriously);
  * a traced repetition of each workload reproduces the same digest;
  * a wrong reference digest fails the digest check;
  * a withheld completion (one stencil cell never contributes) fails the
    completion check;
  * stopping the machine with one message still in flight leaves an
    outstanding message behind, which fails the drain check.

  python3 perfbench/selftest.py       # exit 0 when every case behaves
"""

import subprocess
import sys

import run


def repetition(*args):
    p = subprocess.run([str(run.BINARY), *args], capture_output=True, text=True,
                       timeout=120)
    last = [l for l in p.stdout.splitlines() if l.startswith("PERFBENCH ")]
    return p.returncode, (last[-1] if last else p.stderr)


def main():
    spec = run.load_spec()
    refs = run.load_references()
    run.build()
    failures = []

    def expect(name, args, code_ok, needle):
        code, out = repetition(*args)
        good = (code == 0) == code_ok and needle in out
        print(f"{'ok  ' if good else 'FAIL'} {name}: exit {code}")
        if not good:
            failures.append(name)
            print(f"     {out}")

    for w in spec["workloads"]:
        args = [f"--workload={w['name']}", "--seed=1",
                f"--expect-digest={refs[w['name']]['1']}"]
        expect(f"{w['name']} passes", args, True, '"ok":true')
        expect(f"{w['name']} traced digest matches", args + ["--trace"], True,
               '"ok":true')

    stencil = ["--workload=stencil_wide", "--seed=1"]
    expect("wrong reference digest trips", stencil + ["--expect-digest=0000000000000000"],
           False, "virtual-time digest")
    expect("withheld completion trips", stencil + ["--inject=withhold-completion"],
           False, "completion callback did not fire")
    expect("leftover outstanding message trips",
           stencil + ["--inject=leftover-outstanding"], False,
           "runtime.outstanding() == 1")

    print(f"{len(failures)} failing case(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
