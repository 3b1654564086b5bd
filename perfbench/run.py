#!/usr/bin/env python3
"""Build and run the end-to-end campaign benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the simulator sources plus campaign_bench.cpp) with CMake
into .bench_build/, then runs one workload. The last stdout line is the
result JSON; build output goes to stderr. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
# Read by campaign_bench (the Table II byte-identity gate).
BASELINE = os.path.join("bench", "baselines", "table2_trials4.json")
WORKLOADS = ("table2", "chronos", "population", "sweep-boot")


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        die("build failed")


def source_digest():
    """sha256 over the simulator and benchmark sources (path + bytes), so a
    result names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256:" + h.hexdigest()


def git_sha():
    """HEAD commit read from ./.git directly ("none" outside a git checkout)."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0x5eed)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in 1..600")

    for need in ("src", BASELINE, os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(need):
            die(f"run from the repository root: {need} is missing")

    build()
    cmd = [os.path.join(BUILD_DIR, "campaign_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source", source_digest()]
    # A traced run takes about 1.5x --seconds plus set-up and checks; one
    # still going after this long is hung (the build is not counted).
    timeout_s = 2 * args.seconds + 120
    try:
        proc = subprocess.run(cmd, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        die(f"benchmark exceeded {timeout_s} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
