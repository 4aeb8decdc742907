#!/usr/bin/env python3
"""Multival benchmark: build the mvbench program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dse-sweep --seed 1 --seconds 10 --trace 0

Workloads: dse-sweep, statespace, serve-solve (see perfbench/README.md).  mvbench is configured and built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use;
later runs only re-check that build.  The script prints each metric by name
with its unit, the error rate with its base, and the provenance of the
numbers, and then, as the last line of standard output, one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer
metrics.  mvbench reports a layer that the workload never calls as an
explicit 0, and a metric it does not report at all fails the run.  Each run
also writes its full result, with provenance, to <build>/results/.

Extra flags for the checker self-test (perfbench/selftest.py): --tiny runs
small inputs, --inject body|states|status plants a wrong output.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("dse-sweep", "statespace", "serve-solve")
# Every run must end within 180 s; keep a margin for the build check.
RUN_LIMIT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir):
    """Configures (once) and builds mvbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (bdir / "CMakeCache.txt").exists():
        cfg = subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=False)
        if cfg.returncode != 0:
            return None
    b = subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr, check=False)
    exe = bdir / "mvbench"
    return exe if b.returncode == 0 and exe.exists() else None


def cmake_cache(bdir):
    values = {}
    try:
        for line in (bdir / "CMakeCache.txt").read_text().splitlines():
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                values[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return values


def source_digest():
    """SHA-256 over the library sources mvbench was built from."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(bdir, args, result):
    cache = cmake_cache(bdir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(
        f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                    cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
        if f)
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "build_type": build_type,
        "compiler": result.get("compiler", ""),
        "cxx_flags": flags,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "threads_used": result.get("threads_used", {}),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations_attempted": result.get("attempted", 0),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject", choices=("body", "states", "status"))
    args = ap.parse_args()
    start = time.monotonic()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        log("run.py: build failed (the multival sources must be at src/)")
        return 1
    out_dir = bdir / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    # The server socket lives in out_dir; a relative path keeps it under the
    # 108-byte limit of Unix socket addresses.
    rel_out = os.path.relpath(out_dir, ROOT)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", rel_out]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    budget = max(30.0, RUN_LIMIT_S - (time.monotonic() - start))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=budget, check=False)
    except subprocess.TimeoutExpired:
        log(f"run.py: mvbench did not finish within {budget:.0f} s")
        return 1
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or not lines:
        log(f"run.py: mvbench exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            log(f"run.py: mvbench did not report {m['name']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    line = {"correct": failed == 0 and attempted > 0,
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}

    prov = provenance(bdir, args, result)
    record = {"provenance": prov, "result": line,
              "all_metrics": result["metrics"], "notes": result["notes"],
              "failures": result["failures"]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for key, m in metrics.items():
        print(f"  {key:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':28s} {failed / max(attempted, 1):.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for note in result["notes"]:
        print(f"  note: {note}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  provenance: {prov['build_type']} build, {prov['compiler']}, "
          f"{prov['cpu_model']}, nproc {prov['nproc']}, "
          f"threads {prov['threads_used']}, commit {prov['git_commit']}, "
          f"src sha256 {prov['source_sha256'][:16]}")
    print(f"  full result: {os.path.relpath(out_dir / name, ROOT)}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
