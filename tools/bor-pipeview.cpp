//===- tools/bor-pipeview.cpp - Pipeline diagram viewer --------------------===//
//
// Renders a pipeline diagram for the first instructions of a BORB image:
//
//   bor-pipeview program.borb [--insts=N] [--skip=N] [--decider=...]
//
//===----------------------------------------------------------------------===//

#include "isa/Serialize.h"
#include "support/ParseNum.h"
#include "uarch/Pipeview.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace bor;

int main(int Argc, char **Argv) {
  const char *Input = nullptr;
  size_t Insts = 48;
  uint64_t Skip = 0;
  std::string Decider = "counter"; // deterministic view by default

  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    if (std::strncmp(A, "--insts=", 8) == 0)
      Insts = parseU64Flag("bor-pipeview", "--insts", A + 8);
    else if (std::strncmp(A, "--skip=", 7) == 0)
      Skip = parseU64Flag("bor-pipeview", "--skip", A + 7);
    else if (std::strncmp(A, "--decider=", 10) == 0)
      Decider = A + 10;
    else if (A[0] != '-' && !Input)
      Input = A;
    else {
      std::fprintf(stderr, "usage: bor-pipeview program.borb [--insts=N] "
                           "[--skip=N] [--decider=lfsr|counter]\n");
      return 2;
    }
  }
  if (!Input) {
    std::fprintf(stderr, "usage: bor-pipeview program.borb [--insts=N] "
                         "[--skip=N] [--decider=lfsr|counter]\n");
    return 2;
  }
  if (Decider != "lfsr" && Decider != "counter") {
    std::fprintf(stderr,
                 "bor-pipeview: --decider must be lfsr or counter, got "
                 "'%s'\n",
                 Decider.c_str());
    return 2;
  }

  LoadResult R = loadProgramFile(Input);
  if (!R.Ok) {
    std::fprintf(stderr, "bor-pipeview: %s\n", R.Error.c_str());
    return 1;
  }

  std::unique_ptr<BrrDecider> D;
  if (Decider == "lfsr")
    D = std::make_unique<BrrUnitDecider>();
  else
    D = std::make_unique<HwCounterDecider>();

  const DecodedProgram Dec(R.Prog);
  Pipeline Pipe(Dec, PipelineConfig(), D.get());
  PipeviewRecorder Recorder(Insts, Skip);
  Recorder.attach(Pipe);
  Pipe.run(Skip + Insts + 4096, /*RequireHalt=*/false);
  std::printf("%s", Recorder.render().c_str());
  return 0;
}
