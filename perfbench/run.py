#!/usr/bin/env python3
"""Builds and runs the canvas corpus benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

Run from the repository root. The harness (perfbench/harness) is built
from source with CMake into .bench_build/perfbench, then run once; its
last stdout line is the JSON result. --trace 1 also writes a Chrome
trace-event file under .bench_build/traces/. --test builds and runs the
benchmark's own tests. See perfbench/DESIGN.md.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
# A run is cut after this long; the harness caps its measured phase well
# below it.
RUN_TIMEOUT_S = 170
JOBS = "4"


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds one target; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD_ROOT, "build.log")
    with open(build_log, "w") as out:
        def step(cmd):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                log("build failed: %s (see %s)" % (" ".join(cmd), build_log))
                return False
            return True

        if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
            # No complete configuration (none yet, or one cut short):
            # start from an empty build directory.
            shutil.rmtree(BUILD, ignore_errors=True)
            os.makedirs(BUILD)
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if not step(configure):
                # Leave no half-configured cache that would skip
                # configuring next time.
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        return step(["cmake", "--build", BUILD, "--target", target, "-j", JOBS])


def no_aslr_prefix():
    """Runs the harness with address-space randomization off where the
    host allows it: code and heap layout then repeat from run to run,
    which removes one source of run-to-run timing spread."""
    setarch = shutil.which("setarch")
    if not setarch:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    try:
        ok = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, timeout=10).returncode == 0
    except (OSError, subprocess.SubprocessError):
        ok = False
    return prefix if ok else []


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_bench(args):
    if not build("perfbench"):
        return 1
    work = os.path.join(BUILD_ROOT, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = no_aslr_prefix() + [
        os.path.join(BUILD, "perfbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work-dir", work]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        log("harness exited with %d" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
        names = set(result["metrics"])
    except (ValueError, KeyError, TypeError):
        sys.stdout.write(proc.stdout)
        log("harness printed no JSON result")
        return 1
    want = expected_metrics(args.trace)
    if names != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log("metric names differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(want - names), sorted(names - want)))
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def run_tests():
    if not build("perfbench_test") or not build("perfbench"):
        return 1
    test = os.path.join(BUILD, "perfbench_test")
    if not os.path.exists(test):
        log("GTest not found; the benchmark's tests were not built")
        return 1
    work = os.path.join(BUILD_ROOT, "test-work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, PERFBENCH_TEST_WORKDIR=work)
    env.pop("CANVAS_FAULT", None)
    try:
        return subprocess.run([test], env=env, timeout=600).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    args = p.parse_args()
    if args.test:
        return run_tests()
    if not args.workload:
        p.error("--workload is required")
    return run_bench(args)


if __name__ == "__main__":
    sys.exit(main())
