#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the bor library and the benchmark driver from source into
.bench_build/perfbench (CMake, optimised, assertions on), then runs one
workload. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; build output goes to standard
error. Workloads: fig13_full, fig13_sampled, fig13_ckpt_warm, accuracy.

Further driver flags pass through unchanged: --scale N (workload size, as
bor-bench --scale), --json-dir DIR (keep the JSON-lines records),
--reference FILE (digests to check against; default
perfbench/reference.json) and --emit-reference FILE.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"


def build(target="perfbench"):
    """Configure (once) and build TARGET; exits on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/CMakeLists.txt next to perfbench/; "
                 "run from a full checkout of the repository")
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return BUILD / target


def main():
    args = sys.argv[1:]
    driver = build()
    work = ROOT / ".bench_build" / f"work-{os.getpid()}"
    cmd = [str(driver), *args, "--work-dir", str(work)]
    if "--reference" not in args:
        cmd += ["--reference", str(BENCH / "reference.json")]
    try:
        rc = subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
