#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds campaign_bench (the rumor library from ../src plus the benchmark
sources in this directory) into .bench_build (or $CARGO_TARGET_DIR), generates workload
W from seed N, and runs it in its own process on two worker threads. The
last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Two more modes:

    python3 perfbench/run.py --selftest          # the output check catches planted defects
    python3 perfbench/run.py --make-reference W  # re-record W's reference cell means

Run from the repository root. Everything is read and written inside the
checkout: the build tree, and a per-run work directory under .bench_work
that is removed when the run ends.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("theorem_sweep", "big_graph", "cell_storm")
BENCH_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
REFERENCE_SEEDS = {"theorem_sweep": 8, "big_graph": 10, "cell_storm": 48}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and waits for it. On timeout the
    whole group (make and compilers too) is killed and reaped, then
    TimeoutExpired is raised. Returns (exit code, stdout or None)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Configures once and builds incrementally; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {os.path.join(ROOT, 'src')}", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    # No --target: a Makefile tree made before a CMakeLists.txt change does
    # not know new target names until cmake re-runs, which a plain build does.
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=log, stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {' '.join(step)} failed: {e}")
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(out, "campaign_bench")


def run_bench(args, timeout=BENCH_TIMEOUT_S):
    """Runs campaign_bench to completion (killing it at the timeout); returns
    (exit code, stdout)."""
    try:
        return run_group(args, timeout, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"campaign_bench exceeded {timeout} s")


def work_dir(tag):
    path = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def reference_path(workload):
    return os.path.join(HERE, "reference", f"{workload}.json")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--make-reference", choices=WORKLOADS)
    a = p.parse_args()

    if a.selftest:
        binary = build()
        wd = work_dir("selftest")
        try:
            code, out = run_bench([binary, "selftest", "--work-dir", wd,
                                    "--reference-dir", os.path.join(HERE, "reference")], 600)
        finally:
            shutil.rmtree(wd, ignore_errors=True)
        sys.stdout.write(out)
        sys.exit(code)

    if a.make_reference:
        w = a.make_reference
        binary = build()
        wd = work_dir(f"reference-{w}")
        try:
            code, out = run_bench([binary, "reference", "--workload", w,
                                    "--seeds", "100001", str(REFERENCE_SEEDS[w]),
                                    "--work-dir", wd, "--out", reference_path(w)], 3600)
        finally:
            shutil.rmtree(wd, ignore_errors=True)
        sys.stdout.write(out)
        sys.exit(code)

    if a.workload is None or a.seed is None or a.seconds is None or a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    binary = build()
    wd = work_dir(f"{a.workload}-{a.seed}")
    try:
        code, out = run_bench([binary, "run", "--workload", a.workload, "--seed", str(a.seed),
                                "--seconds", repr(a.seconds), "--trace", str(a.trace),
                                "--work-dir", wd,
                                "--reference", reference_path(a.workload)])
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"campaign_bench exited with code {code}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(out)
        fail("campaign_bench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
