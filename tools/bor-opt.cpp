//===- tools/bor-opt.cpp - Profile-guided layout optimizer driver ---------===//
//
// Re-linearizes a BORB image with the profile-guided layout passes:
//
//   bor-opt in.borb -o out.borb --profile p.json     # sampled profile
//   bor-opt in.borb -o out.borb --collect oracle     # exact interpreter
//   bor-opt in.borb -o out.borb                      # structural passes only
//
// Options:
//   --profile FILE       bor-profile-v1 JSON (block-keyed counts)
//   --collect oracle     run the interpreter, collect an exact profile
//   --emit-profile FILE  write the profile used (for bor-dis --profile)
//   --cold-divisor N     cold threshold (default 64)
//   --no-branch-direction / --no-hot-cold / --no-outline   disable a pass
//   --keep-jumps         keep jmp-to-next instead of eliding it
//
//===----------------------------------------------------------------------===//

#include "cfg/Cfg.h"
#include "isa/Serialize.h"
#include "opt/Passes.h"
#include "opt/ProfileMap.h"
#include "sim/Machine.h"
#include "support/ParseNum.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace bor;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: bor-opt in.borb -o out.borb [--profile FILE | --collect "
      "oracle]\n               [--emit-profile FILE] [--cold-divisor N]\n"
      "               [--no-branch-direction] [--no-hot-cold] "
      "[--no-outline] [--keep-jumps]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string InputPath, OutputPath, ProfilePath, EmitProfilePath;
  bool CollectOracle = false;
  opt::LayoutOptions Opts;
  cfg::EmitOptions Emit;
  Emit.ElideJumpToNext = true;

  for (int I = 1; I != Argc; ++I) {
    auto Arg = [&](const char *Name, std::string &Out) {
      if (std::strcmp(Argv[I], Name) != 0)
        return false;
      if (++I == Argc)
        std::exit(usage());
      Out = Argv[I];
      return true;
    };
    std::string Val;
    if (std::strcmp(Argv[I], "-o") == 0) {
      if (++I == Argc)
        return usage();
      OutputPath = Argv[I];
    } else if (Arg("--profile", ProfilePath) ||
               Arg("--emit-profile", EmitProfilePath)) {
    } else if (Arg("--collect", Val)) {
      if (Val != "oracle") {
        std::fprintf(stderr, "bor-opt: unknown profile collector '%s'\n",
                     Val.c_str());
        return 2;
      }
      CollectOracle = true;
    } else if (Arg("--cold-divisor", Val)) {
      Opts.ColdDivisor =
          parseU64Flag("bor-opt", "--cold-divisor", Val.c_str());
      if (Opts.ColdDivisor == 0) {
        std::fprintf(stderr, "bor-opt: --cold-divisor must be positive\n");
        return 2;
      }
    } else if (std::strcmp(Argv[I], "--no-branch-direction") == 0) {
      Opts.BranchDirection = false;
    } else if (std::strcmp(Argv[I], "--no-hot-cold") == 0) {
      Opts.HotColdSplit = false;
    } else if (std::strcmp(Argv[I], "--no-outline") == 0) {
      Opts.OutlineCold = false;
    } else if (std::strcmp(Argv[I], "--keep-jumps") == 0) {
      Emit.ElideJumpToNext = false;
    } else if (Argv[I][0] == '-') {
      return usage();
    } else if (InputPath.empty()) {
      InputPath = Argv[I];
    } else {
      return usage();
    }
  }
  if (InputPath.empty() || OutputPath.empty())
    return usage();
  if (!ProfilePath.empty() && CollectOracle) {
    std::fprintf(stderr,
                 "bor-opt: --profile and --collect are mutually exclusive\n");
    return 2;
  }

  LoadResult R = loadProgramFile(InputPath);
  if (!R.Ok) {
    std::fprintf(stderr, "bor-opt: %s\n", R.Error.c_str());
    return 1;
  }

  opt::ProfileMap Prof;
  if (!ProfilePath.empty()) {
    std::ifstream In(ProfilePath);
    if (!In) {
      std::fprintf(stderr, "bor-opt: cannot read %s\n", ProfilePath.c_str());
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Err;
    if (!opt::ProfileMap::fromJson(Buf.str(), Prof, Err)) {
      std::fprintf(stderr, "bor-opt: %s: %s\n", ProfilePath.c_str(),
                   Err.c_str());
      return 1;
    }
  } else if (CollectOracle) {
    const DecodedProgram Dec(R.Prog);
    BrrUnitDecider D;
    Prof = opt::collectOracleProfile(Dec, D, 1ULL << 28);
  }

  if (!EmitProfilePath.empty()) {
    std::ofstream Out(EmitProfilePath);
    if (!Out) {
      std::fprintf(stderr, "bor-opt: cannot write %s\n",
                   EmitProfilePath.c_str());
      return 1;
    }
    Out << Prof.toJson() << "\n";
  }

  cfg::Module M = cfg::buildModule(R.Prog);
  opt::LayoutStats LS = opt::optimizeLayout(M, Prof, Opts);
  cfg::EmitStats ES;
  Program Optimized = cfg::emitProgram(M, Emit, &ES);

  if (!saveProgram(Optimized, OutputPath)) {
    std::fprintf(stderr, "bor-opt: cannot write %s\n", OutputPath.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "bor-opt: %zu blocks, %zu traces, %zu flips, %zu cold + %zu "
               "brr outlined; emitted %zu insts (%zu inverted, %zu jumps "
               "inserted, %zu elided, %zu relaxed)\n",
               M.numBlocks(), LS.Traces, LS.HotFallthroughs, LS.ColdOutlined,
               LS.BrrOutlined, ES.Insts, ES.InvertedBranches,
               ES.InsertedJumps, ES.ElidedJumps, ES.RelaxedBranches);
  return 0;
}
