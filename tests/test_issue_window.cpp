//===- tests/test_issue_window.cpp - Issue-window ring vs map model -------===//
//
// Differential tests of uarch/IssueWindow against the std::map it replaced
// in the Pipeline: both are driven with the same placements and trims, and
// every placement must land on the same cycle.
//
//===----------------------------------------------------------------------===//

#include "uarch/IssueWindow.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>

using namespace bor;

namespace {

/// The Pipeline's former issue-width tracker, kept verbatim as the
/// reference model: an unbounded cycle -> used-slots map whose prefix is
/// erased by trim.
struct MapIssueWindow {
  unsigned Width;
  std::map<uint64_t, unsigned> IssueCount;

  uint64_t place(uint64_t Earliest) {
    uint64_t C = Earliest;
    for (;;) {
      unsigned &Used = IssueCount[C];
      if (Used < Width) {
        ++Used;
        break;
      }
      ++C;
    }
    return C;
  }

  void trim(uint64_t Frontier) {
    IssueCount.erase(IssueCount.begin(), IssueCount.lower_bound(Frontier));
  }
};

/// Drives both models with \p N random placements of width \p Width. The
/// floor advances monotonically, on average by at least a cycle per Width
/// placements as dispatch does, so runs of full cycles stay short. Each
/// placement asks for a cycle at or above the floor, mostly close by,
/// sometimes thousands of cycles ahead (the span a long memory miss
/// opens). Trims land both below and above the floor, so some trimmed
/// cycles are asked for again. Returns the number of ring doublings.
uint64_t driveBoth(uint64_t Seed, unsigned Width, unsigned N) {
  Xoshiro256 Rng(Seed);
  IssueWindow Ring(Width);
  MapIssueWindow Map{Width, {}};
  uint64_t Floor = 0;
  for (unsigned I = 0; I != N; ++I) {
    Floor += Rng.nextBelow(2 + 2 / Width);
    uint64_t Ahead;
    switch (Rng.nextBelow(16)) {
    case 0:
      Ahead = Rng.nextBelow(20000);
      break;
    case 1:
    case 2:
      Ahead = Rng.nextBelow(600);
      break;
    default:
      Ahead = Rng.nextBelow(12);
      break;
    }
    uint64_t Earliest = Floor + Ahead;
    uint64_t Want = Map.place(Earliest);
    uint64_t Got = Ring.place(Earliest, Floor);
    if (Got != Want) {
      ADD_FAILURE() << "placement " << I << " (seed " << Seed << ", width "
                    << Width << ", earliest " << Earliest << ", floor "
                    << Floor << "): ring " << Got << ", map " << Want;
      return Ring.grows();
    }
    if (Rng.nextBelow(512) == 0) {
      uint64_t Frontier = Floor + Rng.nextBelow(2048);
      Frontier = Frontier > 1024 ? Frontier - 1024 : 0;
      Map.trim(Frontier);
      Ring.trim(Frontier);
    }
  }
  return Ring.grows();
}

} // namespace

TEST(IssueWindow, MatchesMapModelOnRandomPlacements) {
  const unsigned Widths[] = {1, 2, 4, 8};
  uint64_t Grows = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed)
    Grows += driveBoth(Seed, Widths[Seed % 4], 150000);
  // Spans far beyond the initial 256 slots must have forced growth.
  EXPECT_GT(Grows, 0u);
}

TEST(IssueWindow, FillsWidthThenSpillsToNextCycle) {
  IssueWindow W(2);
  EXPECT_EQ(W.place(10, 0), 10u);
  EXPECT_EQ(W.place(10, 0), 10u);
  EXPECT_EQ(W.place(10, 0), 11u);
  EXPECT_EQ(W.place(9, 0), 9u);
  EXPECT_EQ(W.place(10, 0), 11u);
  EXPECT_EQ(W.place(10, 0), 12u);
}

TEST(IssueWindow, GrowsInsteadOfOverwritingAReachableCycle) {
  IssueWindow W(1);
  EXPECT_EQ(W.slots(), IssueWindow::InitialSlots);
  EXPECT_EQ(W.place(0, 0), 0u);
  // Cycle 256 shares cycle 0's slot, and cycle 0 is still above the floor.
  EXPECT_EQ(W.place(256, 0), 256u);
  EXPECT_EQ(W.slots(), 512u);
  EXPECT_EQ(W.grows(), 1u);
  EXPECT_EQ(W.place(0, 0), 1u); // cycle 0 survived the growth
  EXPECT_EQ(W.place(256, 0), 257u);
}

TEST(IssueWindow, RecyclesSlotsBelowTheFloor) {
  IssueWindow W(1);
  EXPECT_EQ(W.place(0, 0), 0u);
  EXPECT_EQ(W.place(256, 1), 256u); // cycle 0 is unreachable: no growth
  EXPECT_EQ(W.slots(), 256u);
  EXPECT_EQ(W.grows(), 0u);
}

TEST(IssueWindow, TrimForgetsCyclesBelowTheFrontier) {
  IssueWindow W(1);
  EXPECT_EQ(W.place(5, 0), 5u);
  EXPECT_EQ(W.place(6, 0), 6u);
  W.trim(6);
  EXPECT_EQ(W.place(5, 0), 5u); // forgotten, so free again
  EXPECT_EQ(W.place(6, 0), 7u); // at the frontier, so kept
}
