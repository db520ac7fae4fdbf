//===- sim/Machine.h - Architectural state of a BOR-RISC machine ---------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Architectural state (registers, sparse paged memory, PC) plus the
/// BrrDecider interface through which an executing program's branch-on-
/// random instructions are resolved. Deciders wrap the hardware models of
/// src/core/ (LFSR unit, deterministic hardware counter) or trivial
/// always/never policies for tests — reflecting Section 3.2's point that
/// the ISA promises only asymptotic frequency, not any particular sequence,
/// so *any* decider is an architecturally valid implementation.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_SIM_MACHINE_H
#define BOR_SIM_MACHINE_H

#include "core/BrrUnit.h"
#include "core/DeterministicBrr.h"
#include "isa/Program.h"
#include "sim/Decode.h"

#include <array>
#include <bit>
#include <cassert>
#include <cstring>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

namespace bor {

/// Sparse, paged simulated memory. 64-bit accesses must be 8-byte aligned
/// (all generated code allocates data with that alignment) and are
/// little-endian.
///
/// Pages come in two flavors: privately owned (the ordinary case) and
/// copy-on-write shares of refcounted immutable pages (attachShared). A
/// shared page costs nothing to map and nothing to read; the first write
/// to it copies the 4 KiB into a private page, so concurrent Machines
/// resumed from the same checkpoint-library snapshot (src/ckpt/) alias
/// every untouched page while writes stay strictly per-machine.
///
/// Accesses translate a page number through a direct-mapped cache of
/// TlbEntries entries, indexed by page number mod TlbEntries, before they
/// fall back to the page-table hash. Each entry holds a page number, that
/// page's read pointer and its write pointer, which is null while the page
/// is a COW share. A read hits when the page number matches; a write hits
/// when it matches and the write pointer is set, so the first write to a
/// share takes the slow path, which privatizes the page. The Figure 13
/// programs touch one hot data page and stream their text through
/// consecutive pages, so nearly every miss is a cold one. The entries point
/// at pages, so every change of a mapping must keep them coherent:
///  * a slow-path lookup (lookupRead, lookupWrite) refills the entry of the
///    page it found, so the write that privatizes a share also repoints the
///    entry at the private copy;
///  * a read of an unmapped page fills nothing, so a store that maps a
///    fresh page cannot leave a stale read behind;
///  * attachShared clears the entry of the page it remaps;
///  * reset() (and so Machine::loadProgram and every checkpoint resume)
///    clears every entry.
/// The cache is mutable, so a Memory must not be read from two threads at
/// once: every simulator thread owns its Machine. A Memory is neither
/// copyable nor movable: a moved-from Memory's entries would still point at
/// pages it gave away.
class Memory {
public:
  /// One page of simulated memory; the unit shared between a checkpoint
  /// library's PageStore and attached Machines.
  using Page = std::array<uint8_t, 4096>;
  /// Handle to an immutable shared page (the COW attach currency).
  using PageRef = std::shared_ptr<const Page>;

  Memory() = default;
  /// Publishes the lifetime slow-path lookup count to the telemetry
  /// counter registry (memory.translation_misses).
  ~Memory();
  Memory(const Memory &) = delete;
  Memory &operator=(const Memory &) = delete;

  uint8_t readU8(uint64_t Addr) const {
    const Page *P = pageForRead(Addr);
    return P ? (*P)[Addr % PageBytes] : 0;
  }
  void writeU8(uint64_t Addr, uint8_t Value) {
    pageFor(Addr)[Addr % PageBytes] = Value;
  }
  uint64_t readU64(uint64_t Addr) const {
    assert(Addr % 8 == 0 && "64-bit loads must be 8-byte aligned");
    const Page *P = pageForRead(Addr);
    if (!P)
      return 0;
    uint64_t Value;
    std::memcpy(&Value, P->data() + Addr % PageBytes, sizeof(Value));
    return Value;
  }
  void writeU64(uint64_t Addr, uint64_t Value) {
    assert(Addr % 8 == 0 && "64-bit stores must be 8-byte aligned");
    std::memcpy(pageFor(Addr).data() + Addr % PageBytes, &Value,
                sizeof(Value));
  }
  /// Copies \p Len bytes from \p Src to [Addr, Addr + Len), which must lie
  /// within one page.
  void writeBytes(uint64_t Addr, const uint8_t *Src, size_t Len) {
    assert(Addr % PageBytes + Len <= PageBytes && "byte run crosses a page");
    std::memcpy(pageFor(Addr).data() + Addr % PageBytes, Src, Len);
  }

  /// Number of distinct pages touched (for tests).
  size_t numPages() const { return Pages.size(); }

  /// Page granularity of the sparse backing store.
  static constexpr uint64_t pageBytes() { return PageBytes; }

  /// Visits every allocated page in ascending address order with its base
  /// address and PageBytes of content. The deterministic order is what
  /// makes checkpoint images byte-stable across runs.
  void forEachPage(
      const std::function<void(uint64_t Base, const uint8_t *Data)> &Fn)
      const;

  /// Maps \p Base (page-aligned) to the immutable page \p P, read-only and
  /// copy-on-first-write. Replaces whatever was mapped there. The share
  /// keeps \p P alive, so the providing store may be destroyed first.
  void attachShared(uint64_t Base, PageRef P);

  /// Copy-on-write accounting. Cumulative over the Memory's lifetime —
  /// reset() drops the pages but keeps the counts, so a sampled run that
  /// re-attaches checkpoints every period still reports its totals.
  struct CowCounts {
    uint64_t Attached = 0; ///< pages mapped via attachShared
    uint64_t Copied = 0;   ///< shared pages privatized by a write
  };
  const CowCounts &cowCounts() const { return Cow; }

  /// Drops every page — owned and shared alike — returning memory to the
  /// all-zero state. Restoring a checkpoint over a dirty machine relies on
  /// this to shed stale private copies.
  void reset() {
    Pages.clear();
    Tlb.fill(TlbEntry());
  }

private:
  static constexpr uint64_t PageBytes = 4096;
  static_assert(sizeof(Page) == PageBytes, "page type matches granularity");
  static_assert(std::endian::native == std::endian::little,
                "readU64/writeU64 copy host words as little-endian");

  /// One page mapping. Read is always valid once populated (points into
  /// Owned or Shared); Write is null while the page is COW-shared, which
  /// is what routes the first store through makeWritable.
  struct Slot {
    const Page *Read = nullptr;
    Page *Write = nullptr;
    std::unique_ptr<Page> Owned;
    PageRef Shared;
  };

  /// One translation-cache entry: a Slot's pointers under its page number.
  /// NoKey matches no page, since page numbers are addresses divided by
  /// PageBytes.
  static constexpr uint64_t NoKey = ~0ULL;
  struct TlbEntry {
    uint64_t Key = NoKey;
    const Page *Read = nullptr;
    Page *Write = nullptr;
  };
  static constexpr uint64_t TlbEntries = 64;

  /// The writable page holding \p Addr, allocating or privatizing it.
  Page &pageFor(uint64_t Addr) {
    uint64_t Key = Addr / PageBytes;
    const TlbEntry &E = Tlb[Key % TlbEntries];
    return E.Key == Key && E.Write ? *E.Write : lookupWrite(Key);
  }
  /// The page holding \p Addr, or null while it is unmapped.
  const Page *pageForRead(uint64_t Addr) const {
    uint64_t Key = Addr / PageBytes;
    const TlbEntry &E = Tlb[Key % TlbEntries];
    return E.Key == Key ? E.Read : lookupRead(Key);
  }
  Page &lookupWrite(uint64_t Key);
  const Page *lookupRead(uint64_t Key) const;
  void makeWritable(Slot &S);
  void fillEntry(uint64_t Key, const Slot &S) const {
    Tlb[Key % TlbEntries] = {Key, S.Read, S.Write};
  }
  void clearEntry(uint64_t Key) {
    TlbEntry &E = Tlb[Key % TlbEntries];
    if (E.Key == Key)
      E = TlbEntry();
  }

  std::unordered_map<uint64_t, Slot> Pages;
  CowCounts Cow;
  mutable std::array<TlbEntry, TlbEntries> Tlb;
  /// Slow-path lookups: translation-cache misses, plus every read of an
  /// unmapped page.
  mutable uint64_t TranslationMisses = 0;
};

/// Resolves branch-on-random outcomes for an executing program.
class BrrDecider {
public:
  virtual ~BrrDecider();
  /// Returns true if this dynamic brr instance is taken.
  virtual bool decide(FreqCode Freq) = 0;
  /// Implements the rdlfsr instruction (Section 3.4's software-readable
  /// LFSR): returns the generator's current state and advances it.
  /// Implementations without an LFSR return 0.
  virtual uint64_t readAndStep() { return 0; }

  /// Checkpoint support. A decider is architectural state: resuming a
  /// snapshotted execution must reproduce the exact outcome sequence the
  /// uninterrupted run would have produced. checkpointKind() names the
  /// implementation, so a resume can reject a decider of another kind;
  /// checkpointWords() returns the state as opaque words, and
  /// restoreCheckpointWords() installs words captured from a decider of
  /// the same kind. Checkpoint libraries record only the LFSR decider's
  /// stream, so the other deciders report just their kind.
  virtual const char *checkpointKind() const { return "stateless"; }
  virtual std::vector<uint64_t> checkpointWords() const { return {}; }
  virtual void restoreCheckpointWords(const std::vector<uint64_t> &Words) {
    (void)Words;
  }
};

/// The proposed hardware: an LFSR-based BrrUnit (Section 3.3).
class BrrUnitDecider : public BrrDecider {
public:
  explicit BrrUnitDecider(const BrrUnitConfig &Config = BrrUnitConfig())
      : Unit(Config) {}
  /// Publishes the unit's lifetime evaluation count to the telemetry
  /// counter registry (brr_unit.evaluations). Defined in Machine.cpp.
  ~BrrUnitDecider() override;
  bool decide(FreqCode Freq) override { return Unit.evaluate(Freq); }
  uint64_t readAndStep() override {
    uint64_t State = Unit.lfsr().state();
    Unit.lfsr().step();
    return State;
  }
  /// Length of checkpointWords(): the LFSR state and the evaluation count.
  static constexpr size_t NumCheckpointWords = 2;
  const char *checkpointKind() const override { return "lfsr"; }
  std::vector<uint64_t> checkpointWords() const override {
    return {Unit.lfsr().state(), Unit.evaluationCount()};
  }
  void restoreCheckpointWords(const std::vector<uint64_t> &Words) override {
    assert(Words.size() == NumCheckpointWords && "malformed lfsr checkpoint");
    Unit.lfsr().seed(Words[0]);
    Unit.restoreEvaluationCount(Words[1]);
  }
  const BrrUnit &unit() const { return Unit; }

private:
  BrrUnit Unit;
};

/// Deterministic fixed-interval implementation (Section 4.1's "hardware
/// counter").
class HwCounterDecider : public BrrDecider {
public:
  explicit HwCounterDecider(uint64_t Phase = 0) : Unit(Phase) {}
  bool decide(FreqCode Freq) override { return Unit.evaluate(Freq); }
  const char *checkpointKind() const override { return "counter"; }

private:
  HwCounterUnit Unit;
};

/// Never-taken (e.g. to measure framework-only code paths in tests).
class NeverTakenDecider : public BrrDecider {
public:
  bool decide(FreqCode) override { return false; }
};

/// Always-taken (for exercising instrumentation paths deterministically).
class AlwaysTakenDecider : public BrrDecider {
public:
  bool decide(FreqCode) override { return true; }
};

/// Architectural machine state.
class Machine {
public:
  Machine();

  /// Resets memory (dropping any stale pages from a previous program or
  /// checkpoint), copies \p P's data segment in, and resets PC to 0.
  void loadProgram(const Program &P);

  uint64_t readReg(unsigned R) const {
    assert(R < 32 && "register index out of range");
    return Regs[R];
  }
  void writeReg(unsigned R, uint64_t Value) {
    assert(R < 32 && "register index out of range");
    if (R != RegZero)
      Regs[R] = Value;
  }

  /// Raw register file for the interpreter's threaded dispatch loop:
  /// NumRegSlots entries, the 32 registers and then the write sink that
  /// DecodedInst::Dst names for an instruction that writes no register
  /// (rd = r0 included). The loop writes Regs[Dst] unconditionally, so r0
  /// is never written and stays zero; the sink is never read.
  uint64_t *rawRegs() { return Regs.data(); }

  uint64_t pc() const { return Pc; }
  void setPc(uint64_t NewPc) { Pc = NewPc; }

  bool halted() const { return Halted; }
  void setHalted(bool H = true) { Halted = H; }

  Memory &memory() { return Mem; }
  const Memory &memory() const { return Mem; }

private:
  std::array<uint64_t, NumRegSlots> Regs;
  uint64_t Pc = 0;
  bool Halted = false;
  Memory Mem;
};

} // namespace bor

#endif // BOR_SIM_MACHINE_H
