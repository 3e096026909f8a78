#!/usr/bin/env python3
"""Builds kbench from this checkout's sources and runs one workload.

    python3 kbench/run.py --workload durable_ingest --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (and the kanon library it links) into .bench_build/kbench; later
runs only rebuild what changed. Build output goes to stderr, so the last
line on stdout is always the result JSON of the run. See kbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "kbench")
WORKLOADS = ("durable_ingest", "release_reads", "bulk_anonymize")


def build():
    """Configures (once) and builds the kbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("kbench: no kanon sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "kbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "kbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("kbench: build failed: %s" % e)
    sys.stdout.flush()
    result = subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--scratch", os.path.join(BUILD, "scratch")], cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
