#!/usr/bin/env python3
"""Regenerate perfbench/reference.json.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

Runs every workload once at its default size for the default seed (0,
which reproduces the registered experiments) and for the held-out seed,
and stores each run's per-record digests (every field except the *_ms
wall-clock ones) with its fixed work total: simulated instructions, or
invocations for accuracy. Only regenerate after a change that is meant
to alter the simulated results, and say so in the change.
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["fig13_full", "fig13_sampled", "fig13_ckpt_warm", "accuracy"]
SEEDS = [0, 7777]  # the default seed and the held-out seed


def main():
    reference = {}
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                out = Path(tmp) / f"{workload}-{seed}.json"
                run = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", "0", "--trace", "0", "--reference", "",
                     "--emit-reference", str(out)],
                    stdout=subprocess.PIPE, text=True, check=True)
                result = json.loads(run.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    sys.exit(f"{workload} seed {seed}: run was not correct")
                entry = json.loads(out.read_text())
                scale = str(entry["scale"])
                reference.setdefault(workload, {}).setdefault(scale, {})[
                    str(seed)] = {"work": entry["work"],
                                  "cells": entry["cells"]}
                print(f"{workload} scale {scale} seed {seed}: "
                      f"{len(entry['cells'])} records, work {entry['work']}")
    text = json.dumps(reference, indent=1)
    # One record digest per line is noise in a diff; keep each list on one.
    text = re.sub(r'\[\s+([^\]]*?)\s+\]',
                  lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]",
                  text)
    (BENCH / "reference.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
