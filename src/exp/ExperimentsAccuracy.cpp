//===- exp/ExperimentsAccuracy.cpp - Trace-level accuracy experiments ----===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registered experiments whose cells run at trace level (sampling
/// policies over invocation streams, the Section 4.1 methodology):
/// Figures 9/10, the Section 4.2 LFSR-configuration sensitivity sweep and
/// the Section 7 convergent-profiling comparison.
///
//===----------------------------------------------------------------------===//

#include "core/BrrUnit.h"
#include "exp/Experiment.h"
#include "exp/Harness.h"
#include "lfsr/TapCatalog.h"
#include "profile/Accuracy.h"
#include "profile/Convergent.h"
#include "profile/SamplingPolicy.h"
#include "support/Stats.h"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace bor {
namespace exp {

namespace {

/// The fixed master seed behind the Figure-9/10 brr seed sweep.
constexpr uint64_t FigureBrrSeed = 0x2c9277b5;

//===----------------------------------------------------------------------===//
// Figures 9 and 10: profile accuracy across the DaCapo-analogue streams.
//===----------------------------------------------------------------------===//

ExperimentSpec makeAccuracyFigure(const ExperimentOptions &O,
                                  const char *Figure, uint64_t Interval) {
  ExperimentSpec S;
  char Title[256];
  std::snprintf(Title, sizeof(Title),
                "%s - sampling accuracy at interval %llu (percent "
                "overlap)\n(DaCapo-analogue streams, invocation counts "
                "scaled 1/%llu of the paper's)",
                Figure, static_cast<unsigned long long>(Interval),
                static_cast<unsigned long long>(5 * O.Scale));
  S.Title = Title;

  auto Models =
      std::make_shared<std::vector<BenchmarkModel>>(dacapoAnalogues(5 * O.Scale));
  for (const BenchmarkModel &M : *Models)
    S.Cells.push_back(
        {{"benchmark", M.Name},
         {"invocations", std::to_string(M.Invocations)}});

  S.Run = [Models, Interval](const ParamSet &, size_t Index) {
    const BenchmarkModel &M = (*Models)[Index];
    AccuracyRow Row = runAccuracy(M, Interval, FigureBrrSeed);
    RunRecord R;
    R.param("benchmark", M.Name);
    R.metric("invocations", static_cast<uint64_t>(M.Invocations));
    R.metric("sw_count", Row.SwCount, 2);
    R.metric("hw_count", Row.HwCount, 2);
    R.metric("random_mean", Row.Random, 2);
    R.metric("seed_spread", Row.RandomSpread, 2);
    return R;
  };

  S.Summarize = [](const std::vector<RunRecord> &Cells) {
    double Sw = 0, Hw = 0, Rand = 0;
    for (const RunRecord &R : Cells) {
      Sw += R.findMetric("sw_count")->D;
      Hw += R.findMetric("hw_count")->D;
      Rand += R.findMetric("random_mean")->D;
    }
    double N = static_cast<double>(Cells.size());
    RunRecord Avg;
    Avg.param("benchmark", "average");
    Avg.metric("sw_count", Sw / N, 2);
    Avg.metric("hw_count", Hw / N, 2);
    Avg.metric("random_mean", Rand / N, 2);
    return std::vector<RunRecord>{Avg};
  };
  return S;
}

//===----------------------------------------------------------------------===//
// Section 4.2: LFSR tap/seed sensitivity and the AND-bit-selection
// correlation ablation.
//===----------------------------------------------------------------------===//

/// Accuracy of brr sampling on the jython analogue with a caller-supplied
/// unit configuration.
double brrAccuracy(const BenchmarkModel &Model, uint64_t Interval,
                   const BrrUnitConfig &Cfg) {
  MethodProfile Full(Model.NumMethods);
  MethodProfile Sampled(Model.NumMethods);
  BrrPolicy Policy(Interval, Cfg);
  InvocationStream Stream(Model);
  while (!Stream.done()) {
    uint32_t Id = Stream.next();
    Full.record(Id);
    if (Policy.sample())
      Sampled.record(Id);
  }
  return overlapAccuracy(Full, Sampled);
}

ExperimentSpec makeSensLfsr(const ExperimentOptions &O) {
  constexpr uint64_t Interval = 1024;
  const uint64_t SeedSweep[] = {0xace1, 0xbeef, 0x1234,
                                0x777,  0xfedc, 0x2c92};

  ExperimentSpec S;
  S.Title = "Section 4.2 - LFSR configuration sensitivity and AND-input "
            "selection\n(jython analogue, interval 1024; 'and-bits' rows "
            "use freq=25%)";
  S.Notes = "paper: tap-set variation is within seed-to-seed noise (see "
            "the summary rows);\nadjacent AND bits give ~50% conditional "
            "take, spacing restores independence,\nand profiling accuracy "
            "is robust to either.";

  // A shorter stream keeps the tap/seed sweep affordable.
  BenchmarkModel Jython = dacapoAnalogues(5 * O.Scale)[5];
  Jython.Invocations /= 4;
  const uint64_t CorrSamples = 4000000 / O.Scale;

  // Cell definitions, in report order.
  struct Def {
    std::string Group;
    std::string Arm;
    std::string Detail; ///< polynomial taps / seed / policy description
    std::function<RunRecord()> Measure;
  };
  auto Defs = std::make_shared<std::vector<Def>>();

  for (const TapSet &T : paperSensitivityTapSets()) {
    std::string Poly;
    for (unsigned P : T.PolyTaps)
      Poly += (Poly.empty() ? "" : ",") + std::to_string(P);
    Defs->push_back({"taps", T.Name, Poly, [Jython, &T]() {
                       BrrUnitConfig Cfg;
                       Cfg.LfsrWidth = 32;
                       Cfg.TapMask = T.makeLfsr().tapMask();
                       Cfg.Seed = 0xace1;
                       RunRecord R;
                       R.metric("accuracy",
                                brrAccuracy(Jython, Interval, Cfg), 3);
                       return R;
                     }});
  }
  for (uint64_t Seed : SeedSweep) {
    char Hex[32];
    std::snprintf(Hex, sizeof(Hex), "0x%llx",
                  static_cast<unsigned long long>(Seed));
    Defs->push_back({"seed", Hex, "", [Jython, Seed]() {
                       BrrUnitConfig Cfg;
                       Cfg.LfsrWidth = 32;
                       Cfg.TapMask =
                           paperSensitivityTapSets()[0].makeLfsr().tapMask();
                       Cfg.Seed = Seed;
                       RunRecord R;
                       R.metric("accuracy",
                                brrAccuracy(Jython, Interval, Cfg), 3);
                       return R;
                     }});
  }
  for (BitSelectPolicy Policy :
       {BitSelectPolicy::Contiguous, BitSelectPolicy::Spaced}) {
    Defs->push_back(
        {"and-bits", bitSelectPolicyName(Policy), "",
         [Jython, Policy, CorrSamples]() {
           BrrUnitConfig Cfg;
           Cfg.Policy = Policy;
           BrrUnit Unit(Cfg);
           FreqCode Quarter(1);
           uint64_t Taken = 0, Pairs = 0, PairTaken = 0;
           bool Prev = Unit.evaluate(Quarter);
           for (uint64_t I = 0; I != CorrSamples; ++I) {
             bool Cur = Unit.evaluate(Quarter);
             Taken += Cur;
             if (Prev) {
               ++Pairs;
               PairTaken += Cur;
             }
             Prev = Cur;
           }
           BrrUnitConfig AccCfg;
           AccCfg.Policy = Policy;
           RunRecord R;
           R.metric("marginal_taken_pct",
                    100.0 * static_cast<double>(Taken) /
                        static_cast<double>(CorrSamples),
                    2);
           R.metric("cond_taken_pct",
                    100.0 * static_cast<double>(PairTaken) /
                        static_cast<double>(Pairs),
                    2);
           R.metric("accuracy", brrAccuracy(Jython, Interval, AccCfg), 3);
           return R;
         }});
  }

  for (const Def &D : *Defs)
    S.Cells.push_back(
        {{"group", D.Group}, {"arm", D.Arm}, {"detail", D.Detail}});

  S.Run = [Defs](const ParamSet &, size_t Index) {
    const Def &D = (*Defs)[Index];
    RunRecord Measured = D.Measure();
    RunRecord R;
    R.param("group", D.Group);
    R.param("arm", D.Arm);
    R.param("detail", D.Detail);
    R.Metrics = std::move(Measured.Metrics);
    return R;
  };

  S.Summarize = [](const std::vector<RunRecord> &Cells) {
    RunningStat TapSpread, SeedSpread;
    for (const RunRecord &R : Cells) {
      const std::string &Group = *R.findParam("group");
      if (Group == "taps")
        TapSpread.add(R.findMetric("accuracy")->D);
      else if (Group == "seed")
        SeedSpread.add(R.findMetric("accuracy")->D);
    }
    double TapDelta = TapSpread.max() - TapSpread.min();
    double SeedDelta = SeedSpread.max() - SeedSpread.min();
    RunRecord Taps;
    Taps.param("group", "taps");
    Taps.param("arm", "spread (max-min)");
    Taps.metric("accuracy", TapDelta, 3);
    RunRecord Seeds;
    Seeds.param("group", "seed");
    Seeds.param("arm", "spread (max-min)");
    Seeds.metric("accuracy", SeedDelta, 3);
    RunRecord Verdict;
    Verdict.param("group", "verdict");
    Verdict.param("arm", "tap spread within seed noise");
    Verdict.metric("result", std::string(TapDelta <= SeedDelta + 0.5
                                             ? "reproduced"
                                             : "NOT reproduced"));
    return std::vector<RunRecord>{Taps, Seeds, Verdict};
  };
  return S;
}

//===----------------------------------------------------------------------===//
// Section 7: fixed vs convergent sampling rates across a phase change.
//===----------------------------------------------------------------------===//

constexpr uint32_t ConvergentMethods = 64;

/// Phase 1 invokes the Zipf head directly; phase 2 rotates ids by 17 so a
/// previously-cold method becomes the hottest.
uint32_t methodAt(InvocationStream &S, bool Shifted) {
  uint32_t Id = S.next();
  return Shifted ? (Id + 17) % ConvergentMethods : Id;
}

BenchmarkModel phaseModel(uint64_t PhaseLen, uint64_t Seed) {
  BenchmarkModel M;
  M.Invocations = PhaseLen;
  M.NumMethods = ConvergentMethods;
  M.ZipfSkew = 1.2;
  M.ResonantFraction = 0;
  M.Seed = Seed;
  return M;
}

struct PolicyResult {
  uint64_t Samples = 0;
  double Phase2Accuracy = 0;
  /// Visits after the shift until the policy's running profile (over a
  /// trailing window) ranks the new hot method first; 0 = never.
  uint64_t DetectVisits = 0;
};

/// Drives one sampling functor through both phases of \p PhaseLen visits.
template <typename SampleFn>
PolicyResult drive(uint64_t PhaseLen, SampleFn &&Sample) {
  PolicyResult R;
  MethodProfile Phase2Full(ConvergentMethods);
  MethodProfile Phase2Sampled(ConvergentMethods);
  // Trailing window used for shift detection.
  MethodProfile Window(ConvergentMethods);

  InvocationStream S1(phaseModel(PhaseLen, 0xaaa));
  while (!S1.done())
    R.Samples += Sample(methodAt(S1, false));

  InvocationStream S2(phaseModel(PhaseLen, 0xbbb));
  uint64_t Visits = 0;
  const uint32_t NewHot = 17 % ConvergentMethods; // phase-2 image of rank 0
  while (!S2.done()) {
    uint32_t Id = methodAt(S2, true);
    ++Visits;
    Phase2Full.record(Id);
    if (Sample(Id)) {
      ++R.Samples;
      Phase2Sampled.record(Id);
      Window.record(Id);
    }
    // Rotate the detection window every 256 samples.
    if (Window.total() >= 256) {
      bool Detected = true;
      for (uint32_t M = 0; M != ConvergentMethods; ++M)
        if (M != NewHot && Window.count(M) > Window.count(NewHot))
          Detected = false;
      if (Detected && R.DetectVisits == 0)
        R.DetectVisits = Visits;
      Window = MethodProfile(ConvergentMethods);
    }
  }
  R.Phase2Accuracy = overlapAccuracy(Phase2Full, Phase2Sampled);
  return R;
}

ExperimentSpec makeConvergent(const ExperimentOptions &O) {
  const uint64_t PhaseLen = std::max<uint64_t>(4000000 / O.Scale, 100000);
  ExperimentSpec S;
  char Title[192];
  std::snprintf(Title, sizeof(Title),
                "Section 7 - convergent profiling on a phase-changing "
                "workload\n(%llu visits per phase, %u methods)",
                static_cast<unsigned long long>(PhaseLen),
                ConvergentMethods);
  S.Title = Title;
  S.Notes = "shape: the fast policy buys quick detection with ~128x the slow "
            "one's samples;\nthe convergent controller backs off to 1/1024, "
            "then re-raises its rate once\nlow-frequency samples disagree "
            "with its profile and starts that profile afresh\n(the Section "
            "7 loop; profile_samples counts what it kept). detect_visits 0\n"
            "means the shift went unnoticed.";

  const char *const Policies[] = {"fixed 1/8", "fixed 1/1024",
                                  "convergent 1/8..1/1024"};
  for (const char *P : Policies)
    S.Cells.push_back({{"policy", P}});

  S.Run = [PhaseLen, Policies](const ParamSet &, size_t Index) {
    PolicyResult P;
    uint64_t FinalInterval = 0;
    uint64_t ProfileSamples = 0;
    if (Index < 2) {
      FinalInterval = Index == 0 ? 8 : 1024;
      BrrPolicy Fixed(FinalInterval);
      P = drive(PhaseLen, [&](uint32_t) { return Fixed.sample(); });
      ProfileSamples = P.Samples; // a fixed policy keeps every sample
    } else {
      ConvergentConfig Cfg;
      Cfg.InitialFreqRaw = 2; // 1/8
      Cfg.MaxFreqRaw = 9;     // 1/1024
      Cfg.EpochSamples = 512;
      Cfg.AdaptiveThresholds = true; // noise-floor-calibrated
      ConvergentProfiler CP(ConvergentMethods, Cfg);
      P = drive(PhaseLen, [&](uint32_t Id) { return CP.visit(Id); });
      FinalInterval = CP.currentFreq().expectedInterval();
      ProfileSamples = CP.samples();
    }
    RunRecord R;
    R.param("policy", Policies[Index]);
    R.metric("samples", P.Samples);
    R.metric("profile_samples", ProfileSamples);
    R.metric("phase2_accuracy_pct", P.Phase2Accuracy, 2);
    R.metric("detect_visits", P.DetectVisits);
    R.metric("final_interval", FinalInterval);
    return R;
  };
  return S;
}

} // namespace

void registerAccuracyExperiments() {
  ExperimentRegistry &R = ExperimentRegistry::instance();
  R.add("fig09",
        "Figure 9: sampling accuracy at interval 2^10 across the "
        "DaCapo-analogue streams",
        [](const ExperimentOptions &O) {
          return makeAccuracyFigure(O, "Figure 9", 1024);
        });
  R.add("fig10",
        "Figure 10: sampling accuracy at interval 2^13 (8x fewer samples)",
        [](const ExperimentOptions &O) {
          return makeAccuracyFigure(O, "Figure 10", 8192);
        });
  R.add("sens_lfsr",
        "Section 4.2: LFSR tap/seed sensitivity and AND-bit correlation",
        makeSensLfsr);
  R.add("convergent",
        "Section 7: fixed vs convergent sampling rates on a "
        "phase-changing stream",
        makeConvergent);
}

} // namespace exp
} // namespace bor
