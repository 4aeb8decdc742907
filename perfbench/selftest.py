#!/usr/bin/env python3
"""Self-test of the benchmark's output checker.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Every workload runs in its tiny mode (small inputs, one second) through
perfbench/run.py, traced and untraced, and must pass every check with
error_rate 0 (run.py itself fails a run that misses a metric).  Then each planted fault (a corrupted body, a wrong state
count, a non-ok status) runs on every workload that can observe it, and must
raise error_rate above zero.  Exits non-zero on the first expectation that
does not hold.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent

CLEAN = [(w, t) for w in ("dse-sweep", "statespace", "serve-solve")
         for t in (0, 1)]
FAULTS = [
    ("dse-sweep", "body"), ("dse-sweep", "states"), ("dse-sweep", "status"),
    ("statespace", "body"), ("statespace", "states"),
    ("serve-solve", "body"), ("serve-solve", "status"),
]


def run(workload, trace=0, inject=None):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"selftest: {' '.join(cmd[1:])} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ok = True
    for workload, trace in CLEAN:
        r = run(workload, trace)
        good = r["correct"] and r["failed"] == 0
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} tiny {workload} trace {trace}: "
              f"{r['failed']}/{r['attempted']} failed")
    for workload, fault in FAULTS:
        r = run(workload, 0, fault)
        good = r["failed"] > 0 and not r["correct"]
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {fault} fault on {workload}: "
              f"error_rate {r['failed']}/{r['attempted']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
