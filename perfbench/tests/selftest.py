#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Usage, from the root of a checkout:

    python3 perfbench/tests/selftest.py

Checks that
  * every workload prints every end-to-end metric (--trace 0) and every
    per-layer metric (--trace 1) named in BENCHMARK.json, with its unit,
    and reports itself correct;
  * a reference with one corrupted digest makes cells_failed_frac > 0
    (and the run incorrect), while the uncorrupted reference passes;
  * the default-seed equivalence check (equivalence.py) passes.
Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True
import equivalence  # noqa: E402

# A size at which every workload finishes in about a second: fig13 at
# the 2000-character floor, accuracy streams 1/1000 of the paper's.
TINY = "250"


def bench(workload, trace, *extra):
    """Runs one workload once at the tiny size; returns (result, stdout)."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--scale", TINY, *extra],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1]), out


def fail(msg):
    sys.exit("selftest FAILED: " + msg)


def check_metrics(spec):
    for w in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = bench(w["name"], trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{w['name']}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                fail(f"{w['name']} --trace {trace}: not correct")
            for m in spec[kind]:
                got = result["metrics"].get(m["name"])
                if not got or got.get("unit") != m["unit"] or not isinstance(
                        got.get("value"), (int, float)):
                    fail(f"{w['name']} --trace {trace}: {m['name']} "
                         f"missing or without unit {m['unit']}")
            print(f"ok: {w['name']} --trace {trace} prints all "
                  f"{len(spec[kind])} {kind} metrics")


def check_corrupted_reference():
    tmp = ROOT / ".bench_build" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        corrupt_one_digest(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def corrupt_one_digest(tmp):
    emitted = tmp / "emitted.json"
    bench("fig13_full", 0, "--reference", "", "--emit-reference",
          str(emitted))
    entry = json.loads(emitted.read_text())
    ref = {"fig13_full": {str(entry["scale"]): {"3": {
        "work": entry["work"], "cells": entry["cells"]}}}}

    good = tmp / "good.json"
    good.write_text(json.dumps(ref))
    result, _ = bench("fig13_full", 0, "--reference", str(good))
    if not result["correct"] or result["failed"]:
        fail("the uncorrupted reference did not pass")

    cells = ref["fig13_full"][str(entry["scale"])]["3"]["cells"]
    cells[5] = "0" * 16
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(ref))
    result, out = bench("fig13_full", 0, "--reference", str(bad))
    frac = [ln for ln in out.splitlines() if ln.startswith("cells_failed")]
    if result["correct"] or not result["failed"] or not frac or float(
            frac[0].split()[1]) <= 0:
        fail("a corrupted reference digest was not counted as failed")
    print(f"ok: corrupted digest -> {result['failed']} of "
          f"{result['attempted']} cells failed")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_corrupted_reference()
    if equivalence.check(int(TINY)):
        fail("default-seed equivalence check")
    print("selftest passed")


if __name__ == "__main__":
    main()
