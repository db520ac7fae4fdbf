//===- exp/Runner.cpp - Parallel, deterministic experiment execution -----===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//

#include "exp/Runner.h"

#include "exp/Json.h"
#include "exp/ThreadPool.h"
#include "telemetry/Counters.h"
#include "telemetry/Telemetry.h"

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

namespace bor {
namespace exp {

namespace {

/// Progress reporting for long grids: workers call cellDone() as cells
/// finish; a line goes to stderr at most every ~2 seconds (plus a final
/// one), with an ETA extrapolated from completed-cell wall-clock.
class Heartbeat {
public:
  Heartbeat(ProgressMode Mode, const std::string &Name, size_t Total)
      : Mode(Total > 0 ? Mode : ProgressMode::Off), Name(Name), Total(Total),
        Start(Clock::now()), LastPrint(Start) {}

  void cellDone() {
    if (Mode == ProgressMode::Off)
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Done;
    Clock::time_point Now = Clock::now();
    if (Done != Total && secondsBetween(LastPrint, Now) < 2.0)
      return;
    LastPrint = Now;
    double Elapsed = secondsBetween(Start, Now);
    double Eta =
        static_cast<double>(Total - Done) * Elapsed / static_cast<double>(Done);
    if (Mode == ProgressMode::Text) {
      std::fprintf(stderr,
                   "[bor-bench] %s: %zu/%zu cells, %.1fs elapsed, ETA %.1fs\n",
                   Name.c_str(), Done, Total, Elapsed, Eta);
      return;
    }
    // Jsonl: one self-contained object per tick, consumable line by line.
    JsonObjectWriter W;
    W.field("experiment", Name);
    W.fieldRaw("cells_done", jsonNumber(static_cast<uint64_t>(Done)));
    W.fieldRaw("cells_total", jsonNumber(static_cast<uint64_t>(Total)));
    W.fieldRaw("elapsed_s", jsonNumber(Elapsed));
    W.fieldRaw("eta_s", jsonNumber(Eta));
    std::fprintf(stderr, "%s\n", W.finish().c_str());
  }

private:
  using Clock = std::chrono::steady_clock;

  static double secondsBetween(Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double>(B - A).count();
  }

  const ProgressMode Mode;
  const std::string Name;
  const size_t Total;
  const Clock::time_point Start;
  std::mutex Mutex;
  Clock::time_point LastPrint;
  size_t Done = 0;
};

/// Shared state between a timed cell and its abandonable thread. The
/// thread owns a reference; once the waiter gives up, the thread's
/// eventual result is dropped on the floor and the state dies with the
/// thread.
struct TimedAttempt {
  std::mutex M;
  std::condition_variable CV;
  bool Done = false;
  bool Abandoned = false;
  RunRecord Record;
};

/// Runs \p Fn on a detached thread and waits up to \p TimeoutS seconds,
/// or with no deadline when the deadline would not fit the clock. Returns
/// true (with \p Out filled) when the cell finished in time.
bool runAbandonable(std::function<RunRecord()> Fn, double TimeoutS,
                    RunRecord &Out) {
  auto State = std::make_shared<TimedAttempt>();
  std::thread([State, Fn = std::move(Fn)] {
    RunRecord R = Fn();
    std::lock_guard<std::mutex> Lock(State->M);
    if (!State->Abandoned)
      State->Record = std::move(R);
    State->Done = true;
    State->CV.notify_all();
  }).detach();

  using Clock = std::chrono::steady_clock;
  std::unique_lock<std::mutex> Lock(State->M);
  auto IsDone = [&State] { return State->Done; };
  const Clock::time_point Now = Clock::now();
  const std::chrono::duration<double> Budget(TimeoutS);
  // Casting a budget past the clock's range to its integer ticks is
  // undefined (on x86 the deadline lands in the past), so such a budget
  // means no deadline at all. Half the remaining range (~146 years) keeps
  // the double's rounding to ticks clear of the edge.
  bool Finished = true;
  if (Budget < (Clock::time_point::max() - Now) / 2)
    Finished = State->CV.wait_until(
        Lock, Now + std::chrono::duration_cast<Clock::duration>(Budget),
        IsDone);
  else
    State->CV.wait(Lock, IsDone);
  if (Finished) {
    Out = std::move(State->Record);
    return true;
  }
  State->Abandoned = true;
  return false;
}

/// The explicit stand-in record for a cell that overran the timeout: its
/// grid coordinates survive (so rows still line up downstream), and
/// cell_status says what happened instead of metrics.
RunRecord makeTimeoutRecord(const ExperimentSpec &Spec, size_t Index) {
  RunRecord R;
  R.Params = Spec.Cells[Index];
  R.metric("cell_status", std::string("timeout"));
  return R;
}

/// Runs every cell of \p Spec on \p Threads workers, filling \p Results in
/// spec order, and returns how many cells overran \p CellTimeoutS (when
/// positive; see RunnerHooks::CellTimeoutS). \p RunCell is the
/// observability-wrapped cell body used when there is no timeout.
size_t runCells(const ExperimentSpec &Spec, unsigned Threads,
                double CellTimeoutS,
                const std::function<RunRecord(size_t)> &RunCell,
                Heartbeat &HB, std::vector<RunRecord> &Results) {
  std::atomic<size_t> TimedOut{0};
  auto RunOne = [&](size_t I) {
    if (CellTimeoutS <= 0) {
      Results[I] = RunCell(I);
    } else {
      // Abandon-safe closure: copies of the run functor (whose captures
      // are shared_ptr-owned) and the cell's parameters, so a timed-out
      // thread never dangles into the runner's stack frame.
      std::function<RunRecord()> Timed =
          [Run = Spec.Run, Cell = Spec.Cells[I], I]() { return Run(Cell, I); };
      if (!runAbandonable(std::move(Timed), CellTimeoutS, Results[I])) {
        Results[I] = makeTimeoutRecord(Spec, I);
        TimedOut.fetch_add(1, std::memory_order_relaxed);
        if (telemetry::CounterRegistry::enabled()) {
          static const telemetry::Counter Counter("exp.cells.timedout");
          Counter.add();
        }
      }
    }
    HB.cellDone();
  };

  // Multi-cell grids always go through the pool — even with one worker —
  // so the pool's telemetry counters depend only on the grid, never on
  // the --threads value, keeping counter snapshots thread-count-invariant
  // just like the result records.
  const size_t N = Spec.Cells.size();
  if (N <= 1) {
    for (size_t I = 0; I != N; ++I)
      RunOne(I);
  } else {
    ThreadPool Pool(Threads);
    for (size_t I = 0; I != N; ++I)
      Pool.submit([&RunOne, I] { RunOne(I); });
    Pool.wait();
  }
  return TimedOut.load();
}

} // namespace

GridResult runExperiment(const ExperimentSpec &Spec, unsigned Threads,
                         const std::vector<ResultSink *> &Sinks,
                         const RunnerHooks &Hooks) {
  assert(Spec.Run && "experiment has no run functor");
  telemetry::TraceWriter *TW =
      Hooks.Telemetry ? Hooks.Telemetry->Trace : nullptr;

  if (telemetry::CounterRegistry::enabled()) {
    static const telemetry::Counter Experiments("exp.experiments");
    static const telemetry::Counter Cells("exp.cells");
    Experiments.add();
    Cells.add(Spec.Cells.size());
  }

  if (Spec.Setup) {
    telemetry::TraceSpan Span(TW, "setup", "experiment",
                              {telemetry::TraceArg::str("experiment",
                                                        Spec.Name)});
    telemetry::TimeSeries::Scope Tag(Spec.Name,
                                     telemetry::TimeSeries::kSetupCell);
    Spec.Setup();
  }

  Heartbeat HB(Hooks.Progress, Spec.Name, Spec.Cells.size());
  auto RunCell = [&Spec, TW](size_t I) {
    telemetry::TraceSpan Span(
        TW, "cell", "experiment",
        {telemetry::TraceArg::str("experiment", Spec.Name),
         telemetry::TraceArg::num("index", static_cast<uint64_t>(I))});
    // Tag any sampled run inside this cell for the time-series sink; the
    // cell index (not the worker thread) keys the series, which is what
    // keeps timeseries.json thread-count-invariant.
    telemetry::TimeSeries::Scope Tag(Spec.Name, static_cast<int64_t>(I));
    RunRecord R = Spec.Run(Spec.Cells[I], I);
    Span.close();
    return R;
  };

  GridResult Out;
  Out.Records.resize(Spec.Cells.size());
  Out.CellsTimedOut = runCells(Spec, Threads, Hooks.CellTimeoutS, RunCell,
                               HB, Out.Records);

  // A summary over an incomplete grid would average holes into lies;
  // partial runs ship the per-cell truth (markers included) and nothing
  // derived.
  std::vector<RunRecord> Summaries;
  if (Spec.Summarize && !Out.partial()) {
    telemetry::TraceSpan Span(TW, "summarize", "experiment",
                              {telemetry::TraceArg::str("experiment",
                                                        Spec.Name)});
    telemetry::TimeSeries::Scope Tag(Spec.Name,
                                     telemetry::TimeSeries::kSummarizeCell);
    Summaries = Spec.Summarize(Out.Records);
  } else if (Spec.Summarize) {
    std::fprintf(stderr,
                 "[bor-bench] %s: %zu/%zu cells timed out; skipping summary "
                 "stage\n",
                 Spec.Name.c_str(), Out.CellsTimedOut, Spec.Cells.size());
  }

  for (ResultSink *Sink : Sinks)
    Sink->begin(Spec);
  for (const RunRecord &R : Out.Records)
    for (ResultSink *Sink : Sinks)
      Sink->record(R, /*IsSummary=*/false);
  for (const RunRecord &R : Summaries)
    for (ResultSink *Sink : Sinks)
      Sink->record(R, /*IsSummary=*/true);
  for (ResultSink *Sink : Sinks)
    Sink->end();

  return Out;
}

} // namespace exp
} // namespace bor
