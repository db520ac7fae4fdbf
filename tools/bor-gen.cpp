//===- tools/bor-gen.cpp - Workload generator driver -----------------------===//
//
// Builds any of the library's workloads as a BORB image, with the sampling
// framework configured on the command line:
//
//   bor-gen micro               [options] -o out.borb
//   bor-gen app:<bloat|fop|luindex|lusearch|jython>      [options]
//   bor-gen kernel:<crc32|sort|strsearch|matmul|listsum> [options]
//
//   --framework=none|full|cbs|brr    sampling framework (default none)
//   --interval=N                     sampling interval (default 1024)
//   --full-dup                       Arnold-Ryder Full-Duplication
//   --framework-only                 omit the instrumentation bodies
//   --size=N                         workload size override
//   --seed=N                         workload seed override
//
// The generated image carries its profile tables as data symbols, so
// `bor-run out.borb --timing --dump-sym=sites` closes the loop.
//
//===----------------------------------------------------------------------===//

#include "isa/Serialize.h"
#include "support/ParseNum.h"
#include "workloads/AppGen.h"
#include "workloads/Kernels.h"
#include "workloads/Microbench.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace bor;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: bor-gen <micro|app:NAME|kernel:NAME> [-o out.borb]\n"
      "               [--framework=none|full|cbs|brr] [--interval=N]\n"
      "               [--full-dup] [--framework-only] [--size=N] "
      "[--seed=N]\n");
}

bool parseFramework(const std::string &Name, SamplingFramework &Out) {
  if (Name == "none")
    Out = SamplingFramework::None;
  else if (Name == "full")
    Out = SamplingFramework::Full;
  else if (Name == "cbs")
    Out = SamplingFramework::CounterBased;
  else if (Name == "brr")
    Out = SamplingFramework::BrrBased;
  else
    return false;
  return true;
}

/// Whether \p Config's interval is one its framework can build: brr
/// encodes power-of-two intervals in [2, 65536], the counter and full
/// frameworks need at least 1, and the baseline ignores it.
bool intervalFits(const InstrumentationConfig &Config) {
  uint64_t N = Config.Interval;
  switch (Config.Framework) {
  case SamplingFramework::None:
    return true;
  case SamplingFramework::Full:
  case SamplingFramework::CounterBased:
    return N >= 1;
  case SamplingFramework::BrrBased:
    return N >= 2 && N <= 65536 && std::has_single_bit(N);
  }
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload;
  const char *Output = "a.borb";
  InstrumentationConfig Instr;
  uint64_t Size = 0;
  uint64_t Seed = 0;
  bool HaveSeed = false;

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "-o") == 0 && I + 1 < Argc) {
      Output = Argv[++I];
    } else if (std::strncmp(A, "--framework=", 12) == 0) {
      if (!parseFramework(A + 12, Instr.Framework)) {
        usage();
        return 2;
      }
    } else if (std::strncmp(A, "--interval=", 11) == 0) {
      Instr.Interval = parseU64Flag("bor-gen", "--interval", A + 11);
    } else if (std::strcmp(A, "--full-dup") == 0) {
      Instr.Dup = DuplicationMode::FullDuplication;
    } else if (std::strcmp(A, "--framework-only") == 0) {
      Instr.IncludeBody = false;
    } else if (std::strncmp(A, "--size=", 7) == 0) {
      Size = parseU64Flag("bor-gen", "--size", A + 7);
    } else if (std::strncmp(A, "--seed=", 7) == 0) {
      Seed = parseU64Flag("bor-gen", "--seed", A + 7);
      HaveSeed = true;
    } else if (A[0] != '-' && Workload.empty()) {
      Workload = A;
    } else {
      usage();
      return 2;
    }
  }
  if (Workload.empty()) {
    usage();
    return 2;
  }
  if (!intervalFits(Instr)) {
    std::fprintf(stderr,
                 "bor-gen: --interval=%llu does not fit the %s framework "
                 "(brr: a power of two in [2, 65536]; cbs, full: >= 1)\n",
                 static_cast<unsigned long long>(Instr.Interval),
                 frameworkName(Instr.Framework));
    return 2;
  }

  Program Prog;
  std::string Description;

  if (Workload == "micro") {
    MicrobenchConfig C;
    if (Size)
      C.Text.NumChars = Size;
    if (HaveSeed)
      C.Text.Seed = Seed;
    C.Instr = Instr;
    MicrobenchProgram MB = buildMicrobench(C);
    Prog = std::move(MB.Prog);
    Description = "microbenchmark, " +
                  std::to_string(MB.DynamicSiteVisits) + " site visits";
  } else if (Workload.rfind("app:", 0) == 0) {
    std::string Name = Workload.substr(4);
    bool Found = false;
    for (AppConfig App : dacapoAppAnalogues()) {
      if (App.Name != Name)
        continue;
      Found = true;
      if (Size)
        App.NumTopCalls = Size;
      if (HaveSeed)
        App.Seed = Seed;
      App.Instr = Instr;
      AppProgram P = buildApp(App);
      Prog = std::move(P.Prog);
      Description = "application analogue '" + Name + "', " +
                    std::to_string(P.DynamicSiteVisits) + " invocations";
    }
    if (!Found) {
      std::fprintf(stderr, "bor-gen: unknown application '%s'\n",
                   Name.c_str());
      return 2;
    }
  } else if (Workload.rfind("kernel:", 0) == 0) {
    std::string Name = Workload.substr(7);
    KernelConfig C;
    bool Found = false;
    for (KernelKind Kind :
         {KernelKind::Crc32, KernelKind::Sort, KernelKind::StrSearch,
          KernelKind::MatMul, KernelKind::ListSum}) {
      if (Name == kernelName(Kind)) {
        C.Kind = Kind;
        Found = true;
      }
    }
    if (!Found) {
      std::fprintf(stderr, "bor-gen: unknown kernel '%s'\n", Name.c_str());
      return 2;
    }
    C.Size = Size;
    if (HaveSeed)
      C.Seed = Seed;
    C.Instr = Instr;
    KernelProgram K = buildKernel(C);
    Prog = std::move(K.Prog);
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "kernel '%s', expected result %llu", K.Name.c_str(),
                  static_cast<unsigned long long>(K.ExpectedResult));
    Description = Buf;
  } else {
    usage();
    return 2;
  }

  if (!saveProgram(Prog, Output)) {
    std::fprintf(stderr, "bor-gen: error: cannot write '%s'\n", Output);
    return 1;
  }
  std::fprintf(stderr, "bor-gen: %s (%s) -> %s (%zu instructions)\n",
               Description.c_str(), describeConfig(Instr).c_str(), Output,
               Prog.numInsts());
  return 0;
}
