#!/usr/bin/env python3
"""Builds npatbench from source and runs one benchmark workload.

Usage, from the root of a checkout:

    python3 npatbench/run.py --workload scan_compare --seed 1 --seconds 20 --trace 0
    python3 npatbench/run.py --selftest

The build lives in `$CARGO_TARGET_DIR` (default `.bench_build`) under the
checkout root. The benchmark's standard output is passed through; its last
line is the JSON result. Build output goes to standard error.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must finish within 180 s, build check included


def fail(message):
    print(f"npatbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "npatbench")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the toolkit sources (src/) are missing from this checkout")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["scan_compare", "sort_sweep", "fleet_ingest"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true", help="build and run the self-tests")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build("npatbench_selftest")
        return subprocess.run([os.path.join(build_dir, "npatbench_selftest")]).returncode
    if args.workload is None:
        fail("--workload is required")

    build_dir = build("npatbench")
    command = [
        os.path.join(build_dir, "npatbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--expected", os.path.join(HERE, "expected.json"),
        "--trace-out", os.path.join(build_dir, f"trace_{args.workload}.json"),
    ]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"the run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
