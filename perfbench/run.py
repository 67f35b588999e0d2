#!/usr/bin/env python3
"""Build and run the LOTEC repository benchmark.

    python3 perfbench/run.py --workload hot_nested --seed 1 --seconds 10 --trace 0

Run from the repository root.  The first call configures and builds the
runtime from source into .bench_build/ (CMake, Release); later calls only
rebuild what changed.  Arguments are passed to the lotec_perfbench driver
unchanged, and its exit code is returned; the last line of standard output
is the driver's JSON result.  Build output goes to standard error.

Exit codes: those of the driver (see perfbench/driver.cpp), or 4 when the
benchmark cannot be built (for example, when the sources are missing).
"""
import os
import shutil
import subprocess
import sys

EXIT_BUILD_FAILED = 4

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")


def build():
    """Configure (once) and build the driver; returns its path or None."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CMAKE_BUILD_PARALLEL_LEVEL="4", TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            # A failed configure leaves a cache that would skip the next try.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    if subprocess.call(["cmake", "--build", BUILD_DIR, "--parallel", "4"],
                       stdout=sys.stderr, env=env) != 0:
        return None
    return os.path.join(BUILD_DIR, "lotec_perfbench")


def main():
    driver = build()
    if driver is None:
        print("perfbench: build failed", file=sys.stderr)
        return EXIT_BUILD_FAILED
    sys.stdout.flush()
    return subprocess.call([driver] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
