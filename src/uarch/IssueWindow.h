//===- uarch/IssueWindow.h - Out-of-order issue-width tracker -------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-cycle issue-slot bookkeeping for the out-of-order pipeline: place()
/// claims one of Width slots at the earliest cycle at or after the requested
/// one that still has spare width, exactly as an unbounded cycle -> count
/// map would.
///
/// The counts live in a ring indexed by cycle modulo its power-of-two size.
/// The caller passes a floor with every placement, a cycle below which no
/// current or later placement can ask. A slot whose cycle lies below the
/// floor is dead and may be recycled; when a placement would recycle a slot
/// that is still reachable, the ring doubles instead and re-inserts its
/// reachable entries. trim() forgets every cycle below a frontier, like
/// erasing the map's prefix. docs/INTERNALS.md ("Issue-window
/// bookkeeping") derives the floor the Pipeline passes.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_UARCH_ISSUEWINDOW_H
#define BOR_UARCH_ISSUEWINDOW_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bor {

class IssueWindow {
public:
  /// Ring size a window starts with (4 KiB); it doubles on demand.
  static constexpr size_t InitialSlots = 256;

  explicit IssueWindow(unsigned Width)
      : Width(Width), Slots(InitialSlots), Mask(InitialSlots - 1) {
    assert(Width != 0 && "an issue width of zero never places anything");
  }

  /// Claims a slot at the earliest cycle >= \p Earliest with spare width
  /// and returns that cycle. \p Floor promises that neither this call nor
  /// any later one asks for a cycle below it: Floor <= Earliest, and Floor
  /// never decreases from one call to the next.
  uint64_t place(uint64_t Earliest, uint64_t Floor) {
    assert(Floor <= Earliest && "placement below its own floor");
    uint64_t C = Earliest;
    for (;;) {
      Slot &S = Slots[C & Mask];
      if (S.Count != 0 && S.Cycle == C) {
        if (S.Count < Width) {
          ++S.Count;
          return C;
        }
        ++C;
        continue;
      }
      // Cycle C is empty. Its slot holds nothing, a forgotten cycle, or a
      // cycle below the floor -- unless the ring is too small for the
      // reachable span, in which case it grows and C is looked up again.
      if (S.Count != 0 && S.Cycle >= Floor) {
        grow(Floor);
        continue;
      }
      S.Cycle = C;
      S.Count = 1;
      return C;
    }
  }

  /// Forgets every cycle below \p Frontier: a later placement there finds
  /// the cycle empty again.
  void trim(uint64_t Frontier) {
    for (Slot &S : Slots)
      if (S.Cycle < Frontier)
        S.Count = 0;
  }

  /// Current ring size in slots.
  size_t slots() const { return Slots.size(); }
  /// Ring doublings so far.
  uint64_t grows() const { return Grows; }

private:
  struct Slot {
    uint64_t Cycle = 0;
    unsigned Count = 0; ///< 0 marks an empty slot.
  };

  /// Doubles the ring (repeatedly, if two reachable cycles still collide)
  /// and re-inserts every entry at or above \p Floor.
  void grow(uint64_t Floor) {
    std::vector<Slot> Old = std::move(Slots);
    size_t Size = Old.size();
    for (;;) {
      Size *= 2;
      ++Grows;
      Slots.assign(Size, Slot());
      Mask = Size - 1;
      bool Collided = false;
      for (const Slot &S : Old) {
        if (S.Count == 0 || S.Cycle < Floor)
          continue;
        Slot &N = Slots[S.Cycle & Mask];
        if (N.Count != 0) {
          Collided = true;
          break;
        }
        N = S;
      }
      if (!Collided)
        return;
    }
  }

  unsigned Width;
  std::vector<Slot> Slots;
  uint64_t Mask;
  uint64_t Grows = 0;
};

} // namespace bor

#endif // BOR_UARCH_ISSUEWINDOW_H
