#!/usr/bin/env python3
"""Builds the SynDCIM benchmark harness from source and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout. The harness (perfbench/CMakeLists.txt,
which compiles the libraries under src/) is configured as a Release build
in .bench_build/perfbench at the checkout root on first use; later runs
rebuild only what changed. Build output goes to stderr, so the harness's
JSON result stays the last line of stdout. Scratch files live in
.bench_build/scratch-<pid> and are removed when the run ends.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# One run measures for --seconds plus its set-up and checks; anything far
# beyond that is a hang.
RUN_TIMEOUT_S = 170


def step(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} failed with {r.returncode}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/CMakeLists.txt not found next to the "
                 "benchmark; run it from a SynDCIM checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    return os.path.join(BUILD, "perfbench")


def main():
    exe = build()
    scratch = os.path.join(ROOT, ".bench_build", f"scratch-{os.getpid()}")
    try:
        # On timeout subprocess.run kills the harness and waits for it.
        r = subprocess.run([exe, *sys.argv[1:], "--scratch", scratch],
                           cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
