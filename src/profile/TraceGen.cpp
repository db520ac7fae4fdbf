//===- profile/TraceGen.cpp - Synthetic method-invocation streams --------===//

#include "profile/TraceGen.h"

#include <algorithm>
#include <cassert>

using namespace bor;

InvocationStream::InvocationStream(const BenchmarkModel &Model)
    : Model(Model), Rng(Model.Seed),
      Zipf(Model.NumMethods, Model.ZipfSkew) {
  assert(Model.NumMethods >= 16 && "models need a reasonable method count");
  startSegment();
}

void InvocationStream::startSegment() {
  Tuple.clear();
  TuplePos = 0;

  // ResonantFraction is a target *event mass*: since loop segments are
  // orders of magnitude longer than random segments, segment-type choice
  // tracks the mass emitted so far rather than flipping a coin.
  bool Loop = !Model.TuplePeriods.empty() &&
              Model.ResonantFraction > 0.0 &&
              (Emitted == 0 ||
               static_cast<double>(LoopEmitted) <
                   Model.ResonantFraction * static_cast<double>(Emitted));
  if (!Loop) {
    // A random segment: Zipf-distributed independent invocations.
    SegmentRemaining = 200 + Rng.nextBelow(1800);
    return;
  }

  // A periodic loop segment: a fixed tuple of methods per iteration. The
  // tuple methods come from the hot end of the id space so they carry real
  // profile weight (as leaf methods called from a hot loop do).
  unsigned Period =
      Model.TuplePeriods[Rng.nextBelow(Model.TuplePeriods.size())];
  uint32_t First = static_cast<uint32_t>(Rng.nextBelow(16));
  for (unsigned I = 0; I != Period; ++I)
    Tuple.push_back((First + I) % Model.NumMethods);

  uint64_t Iters = Model.LoopItersMin +
                   Rng.nextBelow(Model.LoopItersMax - Model.LoopItersMin + 1);
  SegmentRemaining = Iters * Period;

  // Keep the total loop mass close to the target: truncate a segment that
  // would overshoot the whole-stream budget (still a whole number of
  // iterations).
  uint64_t Budget = static_cast<uint64_t>(
      Model.ResonantFraction * static_cast<double>(Model.Invocations));
  if (LoopEmitted < Budget) {
    uint64_t Left = Budget - LoopEmitted;
    if (SegmentRemaining > Left)
      SegmentRemaining = std::max<uint64_t>(Left / Period, 1) * Period;
  }
}

uint32_t InvocationStream::next() {
  assert(!done() && "stream exhausted");
  while (SegmentRemaining == 0)
    startSegment();

  ++Emitted;
  --SegmentRemaining;

  if (Tuple.empty())
    return static_cast<uint32_t>(Zipf.sample(Rng));

  ++LoopEmitted;
  uint32_t Method = Tuple[TuplePos];
  if (++TuplePos == Tuple.size())
    TuplePos = 0;
  return Method;
}

std::vector<BenchmarkModel> bor::dacapoAnalogues(uint64_t ScaleDivisor) {
  assert(ScaleDivisor >= 1);
  auto Scaled = [ScaleDivisor](uint64_t PaperMillions) {
    return PaperMillions * 1000000 / ScaleDivisor;
  };

  std::vector<BenchmarkModel> Models;

  // Invocation counts follow the paper's Section 4.2 ordering (millions):
  // fop 7, antlr 17, bloat 93, lusearch 108, xalan 109, jython 170,
  // pmd 195, luindex 212. Structural parameters are synthetic: odd tuple
  // periods for the benchmarks counters handle well; long even-period
  // loops for the jython/pmd resonance pathology.
  Models.push_back({"fop", Scaled(7), 200, 1.3, 0.10, {3, 5}, 1000, 10000,
                    0xf0f1});
  Models.push_back({"antlr", Scaled(17), 250, 1.3, 0.15, {3}, 1000, 10000,
                    0xa171});
  Models.push_back({"bloat", Scaled(93), 400, 1.2, 0.20, {3, 5, 7}, 2000,
                    20000, 0xb10a});
  Models.push_back({"lusearch", Scaled(108), 250, 1.2, 0.10, {3}, 1000,
                    10000, 0x105e});
  Models.push_back({"xalan", Scaled(109), 350, 1.2, 0.15, {5}, 1000, 10000,
                    0xa1a9});
  // jython's hot loop is modelled as one long period-2 segment so the
  // counter phase-locks for the whole run, as in the paper.
  Models.push_back({"jython", Scaled(170), 300, 1.2, 0.14, {2}, 2200000,
                    3000000, 0x9e51});
  Models.push_back({"pmd", Scaled(195), 400, 1.2, 0.07, {2}, 1000000,
                    2000000, 0x90d3});
  Models.push_back({"luindex", Scaled(212), 250, 1.3, 0.10, {3}, 1000,
                    10000, 0x10d5});
  return Models;
}
