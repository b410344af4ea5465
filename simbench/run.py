#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --selftest

Builds the `icr` library and the harness from source into `.bench_build/`
at the repository root (configure once, then an incremental build on every
call), runs one workload and passes its output through: human-readable
metric lines, then one JSON object as the last stdout line. Build output
goes to stderr. Exits non-zero, without a result, when the sources or the
build are missing or broken.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BUILD = REPO / ".bench_build" / "simbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"simbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (REPO / "src" / "CMakeLists.txt").is_file():
        fail(f"{REPO / 'src'} is missing; the benchmark builds the simulator "
             "from source")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(BUILD), "--target", target,
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return BUILD / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("simbench_selftest")
        sys.exit(subprocess.run([str(binary)], cwd=BUILD).returncode)
    if not args.workload:
        parser.error("--workload is required")

    binary = build("simbench")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--results", str(REPO / "results")]
    if args.trace == 1:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
