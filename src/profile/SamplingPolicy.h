//===- profile/SamplingPolicy.h - Trace-level sampling policies ----------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three sampling techniques Figures 9 and 10 compare, expressed at the
/// level of a stream of instrumentation-site visits: the software countdown
/// counter ("sw count"), the deterministic hardware counter triggered by a
/// brr instruction ("hw count", Section 4.1), and the LFSR-driven
/// branch-on-random ("random"). Each policy answers one question per site
/// visit: is this visit sampled?
///
/// The brr policy wraps the same core::BrrUnit the decode-stage model uses,
/// so accuracy experiments exercise the exact hardware decision logic.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_PROFILE_SAMPLINGPOLICY_H
#define BOR_PROFILE_SAMPLINGPOLICY_H

#include "core/BrrUnit.h"
#include "core/DeterministicBrr.h"

#include <memory>
#include <string>

namespace bor {

/// One sampling decision per instrumentation-site visit.
class SamplingPolicy {
public:
  virtual ~SamplingPolicy();
  virtual bool sample() = 0;
  virtual std::string name() const = 0;
};

/// Figure 1's software counter: decrement at every visit, sample (and
/// reset) when it reaches zero. Fires exactly every Interval-th visit.
class SwCounterPolicy final : public SamplingPolicy {
public:
  explicit SwCounterPolicy(uint64_t Interval)
      : Interval(Interval), Count(Interval - 1) {
    assert(Interval >= 1 && "interval must be positive");
  }

  bool sample() override {
    if (Count == 0) {
      Count = Interval - 1;
      return true;
    }
    --Count;
    return false;
  }

  std::string name() const override { return "sw-count"; }

private:
  uint64_t Interval;
  uint64_t Count;
};

/// Section 4.1's deterministic brr: a hardware counter taking every
/// Interval-th branch. \p Phase shifts which visit within the period fires.
class HwCounterPolicy final : public SamplingPolicy {
public:
  explicit HwCounterPolicy(uint64_t Interval, uint64_t Phase = 0)
      : Unit(Phase), Freq(FreqCode::forInterval(Interval)) {}

  bool sample() override { return Unit.evaluate(Freq); }

  std::string name() const override { return "hw-count"; }

private:
  HwCounterUnit Unit;
  FreqCode Freq;
};

/// The LFSR-driven branch-on-random.
class BrrPolicy final : public SamplingPolicy {
public:
  BrrPolicy(uint64_t Interval, const BrrUnitConfig &Config = BrrUnitConfig())
      : Unit(Config), Freq(FreqCode::forInterval(Interval)) {}

  bool sample() override { return Unit.evaluate(Freq); }

  std::string name() const override { return "brr-random"; }

  const BrrUnit &unit() const { return Unit; }

private:
  BrrUnit Unit;
  FreqCode Freq;
};

} // namespace bor

#endif // BOR_PROFILE_SAMPLINGPOLICY_H
