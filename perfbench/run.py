#!/usr/bin/env python3
"""Build and run the fastcast repo benchmark.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. It configures and builds the CMake
package in perfbench/ (the fastcast library, scenario_serve and the fcbench
benchmark program) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, and then runs fcbench for one workload. Build output goes to stderr; the last line
on stdout is the JSON result. `--self-test` builds and runs the benchmark's
own unit tests instead. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-warm", "serve-churn", "broadcast-k")


def build(build_dir, targets):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "-j", jobs, "--target"]
                + targets):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if args.self_test:
        build(build_dir, ["perfbench_selftest"])
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_selftest")]).returncode

    build(build_dir, ["fcbench", "scenario_serve"])
    cmd = [os.path.join(build_dir, "fcbench"),
           "--workload=" + args.workload,
           "--seed=" + str(args.seed),
           "--seconds=" + str(args.seconds),
           "--trace=" + str(args.trace),
           "--daemon=" + os.path.join(build_dir, "scenario_serve"),
           "--workdir=" + os.path.join(build_dir, "perfbench-work"),
           "--git-sha=" + git_sha()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
