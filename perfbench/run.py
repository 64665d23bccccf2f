#!/usr/bin/env python3
"""Builds the repo benchmark from the sources of this checkout and runs it.

Usage (from the root of the checkout):

    python3 perfbench/run.py --workload corpus|loops|objects --seed N \
        --seconds S --trace 0|1 [--scale full|tiny]

The build goes to .bench_build/perfbench (Release); its output is sent to
standard error so that the benchmark's last line of standard output stays
its JSON result. Everything the build and the run write stays inside the
checkout. See perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "jsai_perfbench")


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no jsai sources (src/CMakeLists.txt) "
                         "in %s\n" % ROOT)
        return False
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "jsai_perfbench",
         "--parallel", jobs],
        stdout=sys.stderr, env=env).returncode == 0


def main():
    os.chdir(ROOT)
    env = dict(os.environ)
    # Compiler and library temporaries stay inside the checkout too.
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    sys.stdout.flush()
    if not build(env):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    args = [BINARY, "--expected-dir", os.path.join(BENCH_DIR, "expected")]
    return subprocess.run(args + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
