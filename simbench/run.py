#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 simbench/run.py --workload burst_k8 --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds the
driver (simbench/CMakeLists.txt, which compiles ../src) into the build
directory named by $CARGO_TARGET_DIR, default .bench_build; later calls
rebuild incrementally. Build output goes to stderr; the driver's stdout is
passed through, and its last line is the JSON result. With --trace 1 the
sampled spans are appended to <build dir>/spans/<workload>-<seed>.jsonl.
The exit code is the driver's, or 1 if the build fails.
"""
import argparse
import os
import subprocess
import sys

# The first run builds (the budget for it is 900 s); a measured run must end
# within 180 s.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "simbench")
    env = dict(os.environ, TMPDIR=build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "--target", "simbench", "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return None
        if rc != 0:
            return None
    return os.path.join(cmake_dir, "simbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    binary = build(build_dir)
    if binary is None:
        print("simbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("simbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
