#!/usr/bin/env python3
"""Builds the dar benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the library from src/ and the driver
in perfbench/ (Release) into $CARGO_TARGET_DIR, or .bench_build when it is
unset; later calls only rebuild what changed. Build output goes to stderr,
so the last line of stdout is the driver's JSON result. See README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    generated = [os.path.join(build_dir, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--parallel",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)


def main():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    tmpdir = os.path.join(build_dir, "tmp")
    os.makedirs(tmpdir, exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--tmpdir", tmpdir]).returncode


if __name__ == "__main__":
    sys.exit(main())
