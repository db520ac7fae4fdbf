//===- lfsr/Lfsr.cpp - Linear feedback shift register model ---------------===//

#include "lfsr/Lfsr.h"

using namespace bor;

static uint64_t maskForWidth(unsigned Width) {
  assert(Width >= 2 && Width <= 64 && "LFSR width out of range");
  if (Width == 64)
    return ~0ULL;
  return (1ULL << Width) - 1;
}

Lfsr::Lfsr(unsigned Width, uint64_t TapMask, uint64_t Seed)
    : Width(Width), TapMask(TapMask), StateMask(maskForWidth(Width)) {
  assert((TapMask & ~StateMask) == 0 && "tap mask selects bits beyond width");
  assert(TapMask != 0 && "LFSR needs at least one tap");
  seed(Seed);
}

Lfsr Lfsr::fromPolynomial(unsigned Width,
                          const std::vector<unsigned> &PolyTaps,
                          uint64_t Seed) {
  uint64_t TapMask = 0;
  for (unsigned T : PolyTaps) {
    assert(T >= 1 && T <= Width && "polynomial exponent out of range");
    TapMask |= 1ULL << (Width - T);
  }
  return Lfsr(Width, TapMask, Seed);
}

void Lfsr::seed(uint64_t S) {
  State = S & StateMask;
  assert(State != 0 && "the all-zero LFSR state is absorbing");
}

void Lfsr::stepBack(bool ShiftedOutBit) {
  uint64_t FeedbackThatWasInserted = State >> (Width - 1);
  State = ((State << 1) | (ShiftedOutBit ? 1ULL : 0ULL)) & StateMask;
  assert(State != 0 && "shift-back produced the absorbing zero state");
  assert(FeedbackThatWasInserted == tapParity() &&
         "shifted-out bit inconsistent with the feedback that was inserted");
  (void)FeedbackThatWasInserted;
}

uint64_t Lfsr::measurePeriod() const {
  Lfsr Copy = *this;
  uint64_t Start = Copy.state();
  uint64_t Steps = 0;
  do {
    Copy.step();
    ++Steps;
  } while (Copy.state() != Start);
  return Steps;
}
