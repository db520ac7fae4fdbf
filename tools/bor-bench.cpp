//===- tools/bor-bench.cpp - Unified experiment-runner CLI ----------------===//
//
// Drives every experiment registered with the experiment registry --
// Figures 2/9/10/12/13/14, the design ablation, the sensitivity sweep and
// the paper's results outside its figures; --list names them all:
//
//   bor-bench --list
//   bor-bench --experiment fig13 --threads 8 --json out.json
//   bor-bench --all --scale 10
//
// Grid cells run in parallel on a fixed-size thread pool; results are
// collected in deterministic spec order, so the emitted table and the
// BENCH_<name>.json trajectory are byte-identical for any --threads value.
// See docs/BENCHMARKING.md.
//
//===----------------------------------------------------------------------===//

#include "exp/Driver.h"

int main(int Argc, char **Argv) { return bor::exp::benchMain(Argc, Argv); }
