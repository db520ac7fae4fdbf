//===- exp/Driver.h - Command-line driver for registered experiments -----===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line front end of the experiment runner: bor-bench is a
/// thin main() around benchMain(). Its per-run flags include
///
///   --threads N   worker threads (default: hardware concurrency)
///   --json PATH   JSON-lines output path (default BENCH_<name>.json)
///   --no-json     suppress the JSON-lines sink
///   --no-table    suppress the human-readable table
///   --scale N     divide workload sizes by N (quick runs, smoke tests)
///
/// alongside --list, --experiment NAME and --all; docs/BENCHMARKING.md
/// lists every flag.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_EXP_DRIVER_H
#define BOR_EXP_DRIVER_H

namespace bor {
namespace exp {

/// Entry point of the bor-bench tool. Returns the process exit code.
int benchMain(int Argc, char **Argv);

} // namespace exp
} // namespace bor

#endif // BOR_EXP_DRIVER_H
