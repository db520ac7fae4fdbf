#!/usr/bin/env python3
"""Default-seed equivalence check: the benchmark measures the shipped path.

Usage, from the root of a checkout:

    python3 perfbench/tests/equivalence.py [--scale N]

At seed 0 the benchmark's records for fig13_full, fig13_sampled and
accuracy must equal `bor-bench --experiment fig13|fig09|fig10 [--sample]`
at the same scale, field for field, once the wall-clock *_ms fields are
stripped. --scale overrides every workload's default size (the self-test
uses a tiny one). Exits 1 on any difference.
"""

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py: the build step)

# workload -> (registered experiments, extra bor-bench flags)
CASES = {
    "fig13_full": (["fig13"], []),
    "fig13_sampled": (["fig13"], ["--sample"]),
    "accuracy": (["fig09", "fig10"], []),
}


def records(path):
    """The cell and summary records of a JSON-lines file, *_ms stripped."""
    out = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["kind"] == "header":
            continue
        rec["metrics"] = {k: v for k, v in rec["metrics"].items()
                          if not k.endswith("_ms")}
        out.append(rec)
    return out


def check(scale=None):
    """Runs every case; returns the list of mismatch descriptions."""
    bor_bench = run.build("bor-bench")
    work = run.ROOT / ".bench_build" / "equivalence"
    shutil.rmtree(work, ignore_errors=True)
    problems = []
    try:
        for workload, (experiments, flags) in CASES.items():
            mine = work / workload / "perfbench"
            cmd = [sys.executable, str(BENCH / "run.py"),
                   "--workload", workload, "--seed", "0", "--seconds", "0",
                   "--trace", "0", "--json-dir", str(mine)]
            if scale:
                cmd += ["--scale", str(scale)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 check=True).stdout
            used = re.search(r"scale (\d+),", out).group(1)
            for experiment in experiments:
                shipped = work / workload / f"{experiment}.jsonl"
                subprocess.run([str(bor_bench), "--experiment", experiment,
                                "--scale", used, "--threads", "2",
                                "--no-table", "--json", str(shipped),
                                *flags], check=True)
                a = records(mine / f"{experiment}.jsonl")
                b = records(shipped)
                status = "equal" if a == b else "DIFFERENT"
                print(f"{workload} vs bor-bench --experiment {experiment} "
                      f"--scale {used} {' '.join(flags)}: {len(a)} records "
                      f"{status}")
                if a != b:
                    problems.append(f"{workload}/{experiment}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=None)
    problems = check(parser.parse_args().scale)
    if problems:
        sys.exit("equivalence check failed: " + ", ".join(problems))


if __name__ == "__main__":
    main()
