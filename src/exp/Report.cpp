//===- exp/Report.cpp - CI-aware perf-regression comparison ---------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//

#include "exp/Report.h"

#include "exp/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <tuple>

using namespace bor;
using namespace bor::exp;

namespace {

bool endsWith(const std::string &S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

bool contains(const std::string &S, std::string_view Needle) {
  return S.find(Needle) != std::string::npos;
}

/// Which way is "worse" for a metric. Unknown directions are conservative:
/// any significant move counts as a regression.
enum class Direction { HigherWorse, LowerWorse, Unknown };

Direction metricDirection(const std::string &Name) {
  if (Name == "ipc" || endsWith(Name, "_ipc") || Name == "accuracy" ||
      contains(Name, "full_width"))
    return Direction::LowerWorse;
  if (contains(Name, "cycles") || contains(Name, "miss") ||
      contains(Name, "mispredict") || contains(Name, "flush") ||
      contains(Name, "stall") || contains(Name, "overhead") ||
      contains(Name, "spread") || contains(Name, "error") ||
      endsWith(Name, "_ci95"))
    return Direction::HigherWorse;
  return Direction::Unknown;
}

double thresholdFor(const ReportOptions &Opt, const std::string &Name) {
  for (const auto &[Metric, Pct] : Opt.MetricThresholds)
    if (Metric == Name)
      return Pct;
  return Opt.ThresholdPct;
}

std::string fmtValue(double V) { return jsonNumber(V); }

std::string fmtPct(double Pct) {
  if (std::isinf(Pct))
    return Pct > 0 ? "+inf%" : "-inf%";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%+.2f%%", Pct);
  return Buf;
}

/// One row of the metric-change table, kept for sorting by severity.
struct Change {
  std::string Experiment;
  std::string Record;
  std::string Metric;
  std::string BaseText, CandText;
  std::string PctText;
  double AbsPct = 0.0;
  const char *Status = "";
};

/// Index of an experiment's records by their param identity. Duplicate
/// keys (which the specs never produce) get an occurrence suffix so no
/// record silently vanishes from the comparison.
std::map<std::string, const LoadedRecord *>
indexRecords(const LoadedExperiment &E) {
  std::map<std::string, const LoadedRecord *> Index;
  std::map<std::string, unsigned> Seen;
  for (const LoadedRecord &R : E.Records) {
    std::string Key = R.paramKey();
    unsigned N = Seen[Key]++;
    if (N)
      Key += " #" + std::to_string(N);
    Index.emplace(std::move(Key), &R);
  }
  return Index;
}

} // namespace

std::string bor::exp::sparkline(const std::vector<double> &Values) {
  static const char *Levels[] = {"▁", "▂", "▃", "▄",
                                 "▅", "▆", "▇", "█"};
  if (Values.empty())
    return "";
  double Lo = Values[0], Hi = Values[0];
  for (double V : Values) {
    Lo = std::min(Lo, V);
    Hi = std::max(Hi, V);
  }
  std::string Out;
  for (double V : Values) {
    int Level = 3; // constant series: mid height
    if (Hi > Lo) {
      Level = static_cast<int>((V - Lo) / (Hi - Lo) * 7.0 + 0.5);
      Level = std::max(0, std::min(7, Level));
    }
    Out += Levels[Level];
  }
  return Out;
}

ReportResult bor::exp::compareRuns(const LoadedRun &Base,
                                   const LoadedRun &Cand,
                                   const ReportOptions &Opt) {
  ReportResult Res;
  std::vector<std::string> Structural;
  std::vector<Change> Changes;

  //===--- Experiments and records ----------------------------------------===//

  for (const LoadedExperiment &BE : Base.Experiments) {
    const LoadedExperiment *CE = Cand.findExperiment(BE.Name);
    if (!CE) {
      Structural.push_back("experiment `" + BE.Name +
                           "` present only in the baseline");
      continue;
    }
    if (BE.Title != CE->Title)
      Structural.push_back("experiment `" + BE.Name +
                           "` title differs (different scale/config?): \"" +
                           BE.Title + "\" vs \"" + CE->Title + "\"");

    auto BIdx = indexRecords(BE);
    auto CIdx = indexRecords(*CE);
    for (const auto &[Key, BR] : BIdx) {
      auto It = CIdx.find(Key);
      if (It == CIdx.end()) {
        Structural.push_back("`" + BE.Name + "` record [" + Key +
                             "] present only in the baseline");
        continue;
      }
      const LoadedRecord *CR = It->second;

      for (const auto &[Name, BM] : BR->Metrics) {
        const LoadedMetric *CM = CR->findMetric(Name);
        if (!CM) {
          Structural.push_back("`" + BE.Name + "` [" + Key + "] metric `" +
                               Name + "` present only in the baseline");
          continue;
        }

        if (!BM.IsNumber || !CM->IsNumber) {
          // Text metrics (verdicts): any change is a regression — a
          // PASS/FAIL flip must stop the build either way.
          std::string BT = BM.IsNumber ? fmtValue(BM.Num) : BM.Text;
          std::string CT = CM->IsNumber ? fmtValue(CM->Num) : CM->Text;
          if (BT != CT) {
            ++Res.Regressions;
            Changes.push_back({BE.Name, Key, Name, BT, CT, "—",
                               std::numeric_limits<double>::infinity(),
                               "regression (text)"});
          }
          continue;
        }

        double Delta = CM->Num - BM.Num;
        double Pct = BM.Num != 0.0
                         ? 100.0 * Delta / std::fabs(BM.Num)
                         : (Delta == 0.0
                                ? 0.0
                                : std::copysign(
                                      std::numeric_limits<double>::infinity(),
                                      Delta));
        if (std::fabs(Pct) <= thresholdFor(Opt, Name))
          continue;

        // CI-aware significance: when both sides carry a 95% CI sibling,
        // overlapping intervals mean the move is within sampling noise.
        if (!endsWith(Name, "_ci95")) {
          const LoadedMetric *BCi = BR->findMetric(Name + "_ci95");
          const LoadedMetric *CCi = CR->findMetric(Name + "_ci95");
          if (BCi && CCi && BCi->IsNumber && CCi->IsNumber &&
              std::fabs(Delta) <= BCi->Num + CCi->Num)
            continue;
        }

        Direction Dir = metricDirection(Name);
        bool Worse = Dir == Direction::Unknown ||
                     (Dir == Direction::HigherWorse && Delta > 0) ||
                     (Dir == Direction::LowerWorse && Delta < 0);
        if (Worse)
          ++Res.Regressions;
        else
          ++Res.Improvements;
        Changes.push_back({BE.Name, Key, Name, fmtValue(BM.Num),
                           fmtValue(CM->Num), fmtPct(Pct), std::fabs(Pct),
                           Worse ? (Dir == Direction::Unknown ? "changed"
                                                              : "regression")
                                 : "improvement"});
      }
    }
    for (const auto &[Key, CR] : CIdx) {
      (void)CR;
      if (!BIdx.count(Key))
        Structural.push_back("`" + BE.Name + "` record [" + Key +
                             "] present only in the candidate");
    }
  }
  for (const LoadedExperiment &CE : Cand.Experiments)
    if (!Base.findExperiment(CE.Name))
      Structural.push_back("experiment `" + CE.Name +
                           "` present only in the candidate");

  Res.Structural = static_cast<unsigned>(Structural.size());
  std::sort(Changes.begin(), Changes.end(),
            [](const Change &A, const Change &B) {
              if (A.AbsPct != B.AbsPct)
                return A.AbsPct > B.AbsPct;
              return std::tie(A.Experiment, A.Record, A.Metric) <
                     std::tie(B.Experiment, B.Record, B.Metric);
            });

  //===--- Counters --------------------------------------------------------===//

  struct CounterDiff {
    std::string Name;
    uint64_t BaseV = 0, CandV = 0;
    double AbsPct = 0.0;
  };
  std::vector<CounterDiff> CounterDiffs;
  if (!Base.Counters.empty() && !Cand.Counters.empty()) {
    std::map<std::string, std::pair<uint64_t, uint64_t>> Merged;
    for (const auto &[Name, V] : Base.Counters)
      Merged[Name].first = V;
    for (const auto &[Name, V] : Cand.Counters)
      Merged[Name].second = V;
    for (const auto &[Name, BV] : Merged) {
      if (BV.first == BV.second)
        continue;
      double Pct =
          BV.first != 0
              ? 100.0 * (static_cast<double>(BV.second) -
                         static_cast<double>(BV.first)) /
                    static_cast<double>(BV.first)
              : std::numeric_limits<double>::infinity();
      CounterDiffs.push_back({Name, BV.first, BV.second, std::fabs(Pct)});
    }
    std::sort(CounterDiffs.begin(), CounterDiffs.end(),
              [](const CounterDiff &A, const CounterDiff &B) {
                if (A.AbsPct != B.AbsPct)
                  return A.AbsPct > B.AbsPct;
                return A.Name < B.Name;
              });
  }

  //===--- Render ----------------------------------------------------------===//

  std::string &Md = Res.Markdown;
  Md += "# bor-report\n\n";
  auto Side = [&Md](const char *Label, const LoadedRun &Run) {
    Md += "- **" + std::string(Label) + "**: `" + Run.Source + "`";
    if (Run.HasManifest) {
      Md += " (git " + Run.GitRevision;
      if (!Run.Compiler.empty())
        Md += ", " + Run.Compiler;
      Md += ")";
      if (!Run.Command.empty())
        Md += " — `" + Run.Command + "`";
    }
    Md += "\n";
  };
  Side("baseline", Base);
  Side("candidate", Cand);
  {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  "- **threshold**: ±%.2f%% relative change",
                  Opt.ThresholdPct);
    Md += Buf;
    for (const auto &[Metric, Pct] : Opt.MetricThresholds) {
      std::snprintf(Buf, sizeof(Buf), "; %s ±%.2f%%", Metric.c_str(),
                    Pct);
      Md += Buf;
    }
    Md += "\n\n";
  }

  if (Res.clean() && Res.Improvements == 0) {
    Md += "## Verdict: CLEAN\n\nNo metric moved beyond its threshold.\n";
  } else {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "## Verdict: %s\n\n%u regression(s), %u improvement(s), "
                  "%u structural difference(s).\n",
                  Res.clean() ? "CLEAN (with improvements)" : "REGRESSIONS",
                  Res.Regressions, Res.Improvements, Res.Structural);
    Md += Buf;
  }

  if (!Structural.empty()) {
    Md += "\n## Structural differences\n\n";
    for (const std::string &S : Structural)
      Md += "- " + S + "\n";
  }

  if (!Changes.empty()) {
    Md += "\n## Metric changes\n\n";
    Md += "| experiment | record | metric | baseline | candidate | Δ% | "
          "status |\n";
    Md += "|---|---|---|---|---|---|---|\n";
    size_t Shown = std::min(Changes.size(), Opt.MaxRows);
    for (size_t I = 0; I != Shown; ++I) {
      const Change &C = Changes[I];
      Md += "| " + C.Experiment + " | " + C.Record + " | " + C.Metric +
            " | " + C.BaseText + " | " + C.CandText + " | " + C.PctText +
            " | " + C.Status + " |\n";
    }
    if (Shown != Changes.size())
      Md += "\n(and " + std::to_string(Changes.size() - Shown) +
            " more change(s) beyond the row cap)\n";
  }

  if (!CounterDiffs.empty()) {
    Md += "\n## Counter diff (informational, not gated)\n\n";
    Md += "| counter | baseline | candidate | Δ% |\n|---|---|---|---|\n";
    size_t Shown = std::min(CounterDiffs.size(), Opt.MaxCounterRows);
    for (size_t I = 0; I != Shown; ++I) {
      const CounterDiff &C = CounterDiffs[I];
      double Pct = C.BaseV != 0
                       ? 100.0 * (static_cast<double>(C.CandV) -
                                  static_cast<double>(C.BaseV)) /
                             static_cast<double>(C.BaseV)
                       : std::numeric_limits<double>::infinity();
      Md += "| " + C.Name + " | " + std::to_string(C.BaseV) + " | " +
            std::to_string(C.CandV) + " | " + fmtPct(Pct) + " |\n";
    }
    if (Shown != CounterDiffs.size())
      Md += "\n(and " + std::to_string(CounterDiffs.size() - Shown) +
            " more differing counter(s))\n";
  }

  //===--- Sparklines -------------------------------------------------------===//

  if (!Base.Series.empty() || !Cand.Series.empty()) {
    Md += "\n## Per-interval IPC\n\n";
    auto Mean = [](const std::vector<double> &V) {
      double S = 0;
      for (double X : V)
        S += X;
      return V.empty() ? 0.0 : S / static_cast<double>(V.size());
    };
    auto Key = [](const LoadedSeries &S) {
      return S.Experiment + " cell " + std::to_string(S.Cell) + " run " +
             std::to_string(S.Run);
    };
    size_t Shown = 0;
    for (const LoadedSeries &BS : Base.Series) {
      if (Shown == Opt.MaxSparklines)
        break;
      const LoadedSeries *CS = nullptr;
      for (const LoadedSeries &S : Cand.Series)
        if (S.Experiment == BS.Experiment && S.Cell == BS.Cell &&
            S.Run == BS.Run) {
          CS = &S;
          break;
        }
      char Buf[64];
      Md += "- `" + Key(BS) + "`: " + sparkline(BS.Ipc);
      std::snprintf(Buf, sizeof(Buf), " (mean %.4f)", Mean(BS.Ipc));
      Md += Buf;
      if (CS) {
        Md += " → " + sparkline(CS->Ipc);
        std::snprintf(Buf, sizeof(Buf), " (mean %.4f)", Mean(CS->Ipc));
        Md += Buf;
      } else {
        Md += " → (no candidate series)";
      }
      Md += "\n";
      ++Shown;
    }
    if (Base.Series.empty())
      Md += "(baseline carries no per-interval series)\n";
    size_t Total = std::max(Base.Series.size(), Cand.Series.size());
    if (Total > Shown && !Base.Series.empty())
      Md += "\n(" + std::to_string(Total - Shown) +
            " more series not shown)\n";
  }

  return Res;
}
