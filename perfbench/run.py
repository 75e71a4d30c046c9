#!/usr/bin/env python3
"""Repository benchmark driver.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
library from the repository's own sources) into the build directory, runs one
workload for one seed in a child process, and prints the child's result as
the last line of standard output:

    python3 perfbench/run.py --workload orbit-stream --seed 1 --seconds 15 --trace 0

Run it from the repository root. The build directory is $CARGO_TARGET_DIR
when set, else .bench_build; run artefacts (span traces, scratch asset
stores) go under <build dir>/runs. A child that aborts, hangs past its time
limit or exits non-zero counts as a failed run: the driver prints a failed
result and exits 1. It never retries. A child that refuses to run (bad
arguments, or a non-default SPNF_* mode or unoptimised build in a timed run)
exits 2 and the driver exits 2 without a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("orbit-stream", "serve-steady", "serve-overload")
# The child's time limit: an allowance for the cold setups, the reference
# table and the rung probe, plus each timed pass (two with --trace 1) with
# half again as much to spare.
SETUP_ALLOWANCE_S = 90.0


def child_timeout_s(seconds, trace):
    return SETUP_ALLOWANCE_S + (2 if trace else 1) * seconds * 1.5


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "spnbench")


def source_id(root):
    """The commit when the tree is a git checkout, else a hash of the sources
    the benchmark builds."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def failed_result(reason):
    log(f"run failed: {reason}")
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    out_dir = os.path.join(build_dir, "runs")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--commit", source_id(root)]
    started = time.monotonic()
    timeout = child_timeout_s(args.seconds, args.trace)
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        return failed_result(f"no result within {timeout:.0f} s")
    lines = stdout.splitlines()
    for line in lines[:-1] if child.returncode == 0 else lines:
        print(line)
    if child.returncode == 2:
        log("benchmark refused to run (usage or untimed-mode violation)")
        return 2
    if child.returncode != 0:
        how = (f"signal {-child.returncode}" if child.returncode < 0
               else f"exit code {child.returncode}")
        return failed_result(f"benchmark process ended with {how}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return failed_result("benchmark process printed no result")
    log(f"{args.workload} seed {args.seed}: "
        f"{time.monotonic() - started:.1f} s including setup")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
