#!/usr/bin/env python3
"""Builds and runs the study benchmark.

    python3 studybench/run.py --workload <study|matrix_long|mining_ingest> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark and the library it links into .bench_build/studybench (a few
minutes); later runs only check that the build is up to date. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
See studybench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "studybench")


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"studybench: library sources not found ({needed} is "
                  f"missing under {ROOT})", file=sys.stderr)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "studybench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("studybench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    binary = os.path.join(BUILD, "studybench")
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:], "--root", ROOT]).returncode


if __name__ == "__main__":
    sys.exit(main())
