//===- perfbench/src/Trace.h - Per-layer spans recorded by the benchmark --===//
//
// Part of the branch-on-random reproduction benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder. The benchmark times every call it makes
/// into a layer's public functions (buildMicrobench, the DecodedProgram
/// constructor, Pipeline::run, runSampled, LibraryPool::getOrBuild,
/// runAccuracy, the result sink) from its own code; nothing inside the
/// library is instrumented. A null LayerTrace pointer means an untraced
/// run: Span then reads no clock at all.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// The layer boundaries the benchmark records spans at.
enum class Layer {
  Build,      ///< workloads: buildMicrobench
  Decode,     ///< sim: DecodedProgram construction
  FullRun,    ///< uarch: cold Pipeline construction + Pipeline::run
  SampledRun, ///< sample: runSampled / runSampledFromLibrary
  CkptLoad,   ///< ckpt: LibraryPool::getOrBuild in a timed grid
  CkptBuild,  ///< ckpt: LibraryPool::getOrBuild in the cold set-up
  Accuracy,   ///< profile: runAccuracy
  Stream,     ///< profile: one InvocationStream drain
  Sink,       ///< exp: JSON-lines sink calls
  ExpSetup,   ///< exp: an ExperimentSpec's serial Setup stage
  Cell,       ///< exp: one Run call, or the Setup stage
  Grid,       ///< exp: one exp::runExperiment call
  NumLayers
};

/// Per-layer busy time, call count and work count, plus the sampled
/// runner's own phase timers, summed over every span of one grid.
struct LayerTotals {
  static constexpr int N = static_cast<int>(Layer::NumLayers);
  double Ms[N] = {};
  uint64_t Calls[N] = {};
  uint64_t Work[N] = {}; ///< instructions, or invocations for profile

  /// SampledResult fields, summed over sampled runs.
  double FfMs = 0, WarmMs = 0, MeasureMs = 0;
  uint64_t FfInsts = 0, WarmInsts = 0, MeasureInsts = 0, Intervals = 0;

  double ms(Layer L) const { return Ms[static_cast<int>(L)]; }
  uint64_t calls(Layer L) const { return Calls[static_cast<int>(L)]; }
  uint64_t work(Layer L) const { return Work[static_cast<int>(L)]; }
};

/// Thread-safe accumulator the grid's worker threads record into.
class LayerTrace {
public:
  void add(Layer L, double Ms, uint64_t Work) {
    std::lock_guard<std::mutex> Lock(Mutex);
    int I = static_cast<int>(L);
    Totals.Ms[I] += Ms;
    ++Totals.Calls[I];
    Totals.Work[I] += Work;
  }

  template <typename Fn> void update(Fn F) {
    std::lock_guard<std::mutex> Lock(Mutex);
    F(Totals);
  }

  LayerTotals totals() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Totals;
  }

private:
  mutable std::mutex Mutex;
  LayerTotals Totals;
};

/// Times one call into a layer when a trace is attached.
class Span {
public:
  Span(LayerTrace *T, Layer L) : T(T), L(L) {
    if (T)
      Start = Clock::now();
  }

  /// Closes the span, crediting \p Work units to the layer.
  void done(uint64_t Work = 0) {
    if (T)
      T->add(L, msSince(Start), Work);
    T = nullptr;
  }

private:
  LayerTrace *T;
  Layer L;
  Clock::time_point Start;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
