#!/usr/bin/env python3
"""Builds and runs one workload of the discovery-service benchmark.

    python3 perfbench/run.py --workload install_wave --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a praxi source tree. The first call configures and
builds the service libraries and the benchmark host from source into
.bench_build/perfbench (a few minutes); later calls rebuild incrementally.
Generated inputs are cached under perfbench/.work/cache. The last line of
standard output is the result object; build output goes to standard error.
See perfbench/README.md.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(HERE, ".work")
WORKLOADS = ("install_wave", "learn_while_serve")


def build():
    """Configures (once) and builds the benchmark; raises on failure."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # Concurrent runs in one checkout build one at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", BUILD, "-j", jobs, "--target",
             "praxi_perfbench", "perfbench_selftest"],
            stdout=sys.stderr, check=True)


def settle_disk():
    """Commits the filesystem journal before the measured run starts.

    Preparing inputs may write and evict cache files; on ext4 the journal
    commit that follows (with its block discards) would otherwise land on
    the measured run's first WAL fsync. An fsync of the work directory
    forces that commit now.
    """
    fd = os.open(WORK, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the statistics self-test")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    if args.self_test:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    # Address-space randomization moves the heap and the registry's maps
    # between runs, which shows up as run-to-run spread in allocation-heavy
    # timings (scrape, set-up); the benchmark runs with it off when it can.
    command = ["setarch", "-R"] if shutil.which("setarch") else []
    command += [
        os.path.join(BUILD, "praxi_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", WORK,
    ]
    # Inputs are generated (or found in the cache) by a separate process,
    # so the measured one always loads them the same way: its time and
    # peak memory do not depend on whether the cache was warm.
    prepared = subprocess.run(command + ["--prepare", "1"], stdout=sys.stderr)
    if prepared.returncode != 0:
        return prepared.returncode
    settle_disk()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
