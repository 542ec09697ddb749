#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fig13 --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root, is reused when up to date, and is serialized
by a lock file so concurrent invocations build once. Build output goes to
stderr; stdout carries only the benchmark's result lines, the last of which is
the JSON result (see perfbench/README.md). Any other arguments are passed
to the perfbench binary unchanged.
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d)


def build(out):
    """Configures and builds the benchmark; returns the binary directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found under %s"
                 % ROOT)
    os.makedirs(out, exist_ok=True)
    bin_dir = os.path.join(out, "perfbench")
    with open(os.path.join(out, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [
            ["cmake", "-S", BENCH, "-B", bin_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", bin_dir, "-j2"],
        ]
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if rc != 0:
                sys.exit("perfbench: build step failed (%d): %s"
                         % (rc, " ".join(cmd)))
    return bin_dir


def main():
    out = build_dir()
    bin_dir = build(out)
    args = sys.argv[1:]
    if "--digests" not in args:
        args += ["--digests", os.path.join(BENCH, "digests")]
    if "--out-dir" not in args:
        args += ["--out-dir", os.path.join(out, "out")]
    binary = os.path.join(bin_dir, "perfbench")
    sys.stdout.flush()
    return subprocess.call([binary] + args, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
