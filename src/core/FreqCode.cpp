//===- core/FreqCode.cpp - The brr 4-bit frequency encoding --------------===//

#include "core/FreqCode.h"

#include <bit>
#include <cmath>

using namespace bor;

double FreqCode::probability() const {
  return std::ldexp(1.0, -static_cast<int>(Raw + 1));
}

FreqCode FreqCode::forInterval(uint64_t Interval) {
  assert(Interval >= 2 && Interval <= 65536 && "interval outside brr range");
  assert(std::has_single_bit(Interval) && "brr intervals are powers of two");
  unsigned Log = std::countr_zero(Interval);
  return FreqCode(Log - 1);
}
