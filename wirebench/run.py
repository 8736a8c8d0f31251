#!/usr/bin/env python3
"""Build and run wirebench, the end-to-end benchmark of tcfrag.

    python3 wirebench/run.py --workload trickle --seed 1 --seconds 20 --trace 0
    python3 wirebench/run.py --workload all      # every workload in turn
    python3 wirebench/run.py --self-test         # the benchmark's own tests

Run it from the repository root. The first call configures and builds the
library and the benchmark into .bench_build/ (Release); later calls only
rebuild what changed. A run prints human-readable lines and, as its last
line, one JSON object with the keys correct, attempted, failed and
metrics. The exit code is nonzero when the build fails, any reply differs
from the oracle, a round measures no reply, or a check of the traced
stage budget fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["trickle", "rush", "churn", "paged"]
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures once, then builds; build output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "wirebench", "wirebench_self_test"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("wirebench: build failed: " + " ".join(step))
    return out


def run_child(cmd):
    """Runs cmd to completion (killed after RUN_TIMEOUT_S); returns
    (exit code, stdout)."""
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        return 124, ""
    return child.returncode, stdout


def run_workload(out, workload, seed, seconds, trace):
    binary = str(out / "wirebench")
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    db = None
    if workload == "paged":
        db = out / f"paged-{seed}-{os.getpid()}.tcfdb"
        code, _ = run_child([binary, "prepare", "--workload", workload,
                             "--seed", str(seed), "--db", str(db)])
        if code != 0:
            sys.exit("wirebench: preparing the paged database failed")
        cmd += ["--db", str(db)]
    if trace:
        spans = out / "trace"
        spans.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(spans / f"{workload}-seed{seed}.tsv")]
    try:
        code, stdout = run_child(cmd)
    finally:
        if db is not None:
            for leftover in (db, Path(str(db) + ".tmp")):
                leftover.unlink(missing_ok=True)
    return code, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = build()
    if args.self_test:
        return subprocess.run([str(out / "wirebench_self_test")]).returncode

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for workload in workloads:
        code, stdout = run_workload(out, workload, args.seed, args.seconds,
                                    args.trace)
        if len(workloads) > 1:
            print(f"== {workload}")
        sys.stdout.write(stdout)
        sys.stdout.flush()
        if code == 0:
            try:
                json.loads(stdout.splitlines()[-1])
            except (IndexError, ValueError):
                code = 1
        if code != 0:
            print(f"wirebench: {workload} failed (exit {code})", file=sys.stderr)
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
