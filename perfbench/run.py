#!/usr/bin/env python3
"""Build and run the SeDA benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source tree of this repository.  The harness
(perfbench/) is built against the library sources in src/ into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench at the root),
then run with the given arguments.  Build output goes to stderr; the
harness's stdout passes through unchanged, so its last line is the JSON
result.  Workloads, metrics and their meaning: perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no SeDA sources next to {HERE} (need CMakeLists.txt and src/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(build_dir), "--target", "seda_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "seda_bench"


def main():
    binary = build()
    try:
        result = subprocess.run([str(binary), *sys.argv[1:]], stdout=subprocess.PIPE,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"seda_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(result.stdout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
