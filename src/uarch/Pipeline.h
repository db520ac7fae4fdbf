//===- uarch/Pipeline.h - Out-of-order timing model -----------------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A timing-first out-of-order pipeline model in the spirit of the paper's
/// simulator (Section 5.1): a functional interpreter acts as the golden
/// model supplying the committed instruction stream, and this class assigns
/// per-instruction fetch/decode/dispatch/issue/commit timestamps subject to
/// the machine's structural constraints:
///
///  * fetch: FetchWidth per cycle, stops at a predicted-taken branch,
///    stalls on L1I misses, and restarts after redirects;
///  * in-order decode/dispatch bounded by DecodeWidth and ROB occupancy;
///  * out-of-order issue bounded by IssueWidth, register dependences and
///    load latencies from the cache hierarchy;
///  * in-order commit bounded by CommitWidth.
///
/// Control flow:
///  * conditional branches predict via the tournament predictor + BTB at
///    fetch and resolve in the back end (minimum 11-cycle penalty);
///  * direct jumps resolve in decode (BTB hit at fetch avoids the bubble);
///  * returns predict via the RAS, other indirect jumps via the BTB;
///  * branch-on-random is always predicted not-taken, never touches the
///    predictor or BTB, resolves in decode, and (when taken) pays only the
///    short front-end flush; a not-taken brr commits at decode and uses no
///    back-end resources at all (Section 3.3).
///
/// Wrong-path instructions are modelled as lost fetch cycles (the redirect
/// gap), not as occupants of back-end resources; docs/INTERNALS.md
/// discusses this and the model's other approximations.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_UARCH_PIPELINE_H
#define BOR_UARCH_PIPELINE_H

#include "sim/Interpreter.h"
#include "uarch/BranchPolicy.h"
#include "uarch/IssueWindow.h"
#include "uarch/MicroarchState.h"
#include "uarch/PipelineConfig.h"
#include "uarch/ReturnAddressStack.h"

#include <cassert>
#include <vector>

namespace bor {

namespace telemetry {
struct TelemetrySink;
} // namespace telemetry

/// Cycle-level results of a timed execution.
struct PipelineStats {
  uint64_t Cycles = 0;
  uint64_t Insts = 0;

  uint64_t CondBranches = 0;
  uint64_t CondMispredicts = 0;
  uint64_t IndirectBranches = 0;
  uint64_t IndirectMispredicts = 0;
  uint64_t DirectJumps = 0;
  uint64_t DirectJumpDecodeRedirects = 0; ///< BTB-miss bubbles.
  uint64_t BrrExecuted = 0;
  uint64_t BrrTaken = 0; ///< each costs one front-end flush.

  uint64_t FetchIcacheStallCycles = 0;
  uint64_t BackendFlushCycles = 0;  ///< fetch cycles lost to back-end redirects.
  uint64_t FrontendFlushCycles = 0; ///< fetch cycles lost to decode redirects.

  /// Cycles in which fetch delivered its full width (for the Section 5.3
  /// baseline characterization).
  uint64_t FullWidthFetchCycles = 0;

  double ipc() const {
    return Cycles ? static_cast<double>(Insts) / static_cast<double>(Cycles)
                  : 0.0;
  }
};

/// A committed marker instruction, used by the harness to delimit regions
/// of interest exactly as the paper uses Simics magic instructions.
struct MarkerEvent {
  int32_t Id = 0;
  uint64_t CommitCycle = 0;
  uint64_t InstsRetired = 0;
};

/// Everything a timed execution produces: the cycle-level statistics and
/// the committed region-of-interest markers, returned together so callers
/// never have to reach back into the Pipeline for half the result.
struct RunResult {
  PipelineStats Stats;
  std::vector<MarkerEvent> Markers;

  /// Cycles between the first two markers (the harness convention for the
  /// region of interest). Requires at least two committed markers.
  uint64_t roiCycles() const {
    assert(Markers.size() >= 2 && "run committed fewer than two markers");
    return Markers[1].CommitCycle - Markers[0].CommitCycle;
  }
};

/// Multi-line human-readable rendering of a run's statistics (used by the
/// bor-run tool and available for ad-hoc debugging).
std::string describeStats(const PipelineStats &S);

/// Per-instruction stage timestamps, published to the observer callback.
/// Useful for pipeline visualization and for property tests of the timing
/// model's structural invariants (stage ordering, widths, ROB occupancy).
struct InstTimestamps {
  uint64_t Pc = 0;
  Inst I;
  uint64_t Fetch = 0;
  uint64_t Decode = 0;
  /// Dispatch/Issue are meaningful only when !CommittedAtDecode.
  uint64_t Dispatch = 0;
  uint64_t Issue = 0;
  uint64_t Done = 0;
  uint64_t Commit = 0;
  /// brr fast path: no ROB entry, no issue slot (Section 3.3).
  bool CommittedAtDecode = false;
  /// Back-end misprediction (conditional or indirect) charged to this
  /// instruction.
  bool Mispredicted = false;
  /// Decode-resolved redirect (taken brr or BTB-missing direct jump).
  bool FrontEndFlush = false;
};

/// The timing model. It executes a caller-owned DecodedProgram, the image
/// every other engine running the same program shares. In the classic
/// (cold) form it owns the machine state, functional oracle, branch
/// predictor, BTB, RAS and cache hierarchy for one run. In the attached
/// form it borrows an existing Machine and MicroarchState, resuming
/// execution from the machine's current PC with pre-warmed structures --
/// the detailed-interval mode of the sampled-simulation subsystem. Either
/// way every committed instruction's architectural effects land in the
/// (owned or borrowed) Machine, so state drains back to the caller
/// naturally.
class Pipeline {
public:
  /// Cold run over a fresh machine: loads the program and starts at PC 0
  /// with empty caches and untrained predictors. \p DP must outlive the
  /// Pipeline; decode once per workload and share the image across every
  /// Pipeline (and thread) that runs it. \p Decider resolves brr
  /// outcomes; pass nullptr to use an LFSR-based BrrUnitDecider built
  /// from \p Config.Brr.
  Pipeline(const DecodedProgram &DP,
           const PipelineConfig &Config = PipelineConfig(),
           BrrDecider *Decider = nullptr);

  /// Attached run: resumes \p M from its current PC (no image reload)
  /// against the caller's \p Uarch structures, which are read AND trained
  /// in place. \p DP, \p M, \p Uarch and \p Decider must outlive the
  /// Pipeline. This is the form the sampled runner attaches once per
  /// detailed interval, so sharing the decoded image matters most here.
  Pipeline(const DecodedProgram &DP, Machine &M, MicroarchState &Uarch,
           const PipelineConfig &Config, BrrDecider &Decider);

  /// Publishes the run's aggregate statistics to the telemetry counter
  /// registry (pipeline.*, including the issue window's size and growth),
  /// plus the owned microarchitectural structures'
  /// stats in the cold-run form (an attached run's structures belong to
  /// the sampled runner, which publishes them once at the end).
  ~Pipeline();

  /// Attaches a telemetry sink for the duration of the runs that follow.
  /// Only the detail-event switch matters here: with DetailEvents set, the
  /// run loop emits instant trace events for pipeline flushes and taken
  /// brr. Null (the default) disables everything.
  void setTelemetry(const telemetry::TelemetrySink *T) { Telemetry = T; }

  /// Runs until the program halts or \p MaxInsts instructions commit.
  /// Asserts that the program halts within the budget when \p RequireHalt.
  RunResult run(uint64_t MaxInsts, bool RequireHalt = true);

  const PipelineStats &stats() const { return Stats; }

  /// Installs a per-instruction timestamp observer (nullptr to disable).
  /// Invoked once per committed instruction, in program order.
  void setObserver(std::function<void(const InstTimestamps &)> Callback) {
    Observer = std::move(Callback);
  }

  const MemoryHierarchy &memHier() const { return Uarch.MemHier; }
  const TournamentPredictor &predictor() const { return Uarch.Predictor; }
  const Btb &btb() const { return Uarch.TargetBuffer; }
  Machine &machine() { return Mach; }

private:
  /// Bandwidth tracker for an in-order stage: places events at the earliest
  /// cycle >= the requested one with spare width.
  struct InOrderStage {
    uint64_t Cycle = 0;
    unsigned Used = 0;
    unsigned Width;

    explicit InOrderStage(unsigned Width) : Width(Width) {}

    uint64_t place(uint64_t Earliest) {
      if (Earliest > Cycle) {
        Cycle = Earliest;
        Used = 0;
      }
      if (Used == Width) {
        ++Cycle;
        Used = 0;
      }
      ++Used;
      return Cycle;
    }
  };

  /// Store-to-load forwarding: the cycle at which the youngest store to
  /// each 8-byte-aligned word has produced its data, kept for every word
  /// the run stores to. A later load from the same word cannot complete
  /// before this (this is what serializes a counter-based framework's
  /// load/decrement/store chain across sites). A flat open-addressed
  /// table: power-of-two capacity, linear probing, at most half full, and
  /// entries are never erased. ~0 marks an empty slot; it is never an
  /// aligned word.
  class StoreTable {
  public:
    StoreTable() { resize(64); }

    /// Ready cycle of the youngest store to \p Word, or null if none.
    const uint64_t *find(uint64_t Word) const {
      for (size_t I = home(Word);; I = (I + 1) & Mask) {
        const Slot &S = Slots[I];
        if (S.Word == Word)
          return &S.Ready;
        if (S.Word == Empty)
          return nullptr;
      }
    }

    /// Records \p Ready as the youngest store to \p Word.
    void set(uint64_t Word, uint64_t Ready) {
      size_t I = home(Word);
      while (Slots[I].Word != Word) {
        if (Slots[I].Word == Empty) {
          if (2 * (Used + 1) > Slots.size()) {
            grow();
            set(Word, Ready);
            return;
          }
          Slots[I].Word = Word;
          ++Used;
          break;
        }
        I = (I + 1) & Mask;
      }
      Slots[I].Ready = Ready;
    }

  private:
    static constexpr uint64_t Empty = ~0ULL;
    struct Slot {
      uint64_t Word = Empty;
      uint64_t Ready = 0;
    };

    /// Fibonacci hashing of the word index onto the table.
    size_t home(uint64_t Word) const {
      return static_cast<size_t>(((Word >> 3) * 0x9e3779b97f4a7c15ULL) >>
                                 Shift);
    }
    void resize(size_t NumSlots);
    void grow();

    std::vector<Slot> Slots;
    size_t Mask = 0;
    unsigned Shift = 0;
    size_t Used = 0;
  };

  uint64_t fetchInstruction(const ExecRecord &R);
  uint64_t placeIssue(uint64_t Earliest, uint64_t Floor);
  /// Completion cycle of \p R when it issues at \p Issue, including cache
  /// latencies and store-to-load forwarding constraints.
  uint64_t completeExecution(const ExecRecord &R, uint64_t Issue);

  PipelineConfig Config;
  const DecodedProgram &Dec;

  /// Owned in the cold-run form, null in the attached form; Mach/Uarch
  /// reference whichever instance applies.
  std::unique_ptr<Machine> OwnedMach;
  std::unique_ptr<MicroarchState> OwnedUarch;
  Machine &Mach;
  MicroarchState &Uarch;
  /// The Config.Brr decider a cold run builds when handed none.
  std::unique_ptr<BrrDecider> DefaultDecider;
  Interpreter Oracle;
  BranchUpdatePolicy Policy;

  // Front-end state.
  uint64_t FetchCycle = 0;
  unsigned FetchedThisCycle = 0;
  bool FetchBreak = false;
  bool RedirectPending = false;
  uint64_t RedirectCycle = 0;
  bool RedirectIsFrontend = false;
  uint64_t LastFetchLine = ~0ULL;

  // In-order stage trackers.
  InOrderStage DecodeStage;
  InOrderStage DispatchStage;
  InOrderStage CommitStage;

  // Back-end state.
  /// Cycle each operand slot's value is ready (sim/Decode.h: registers,
  /// then the never-read sink).
  std::array<uint64_t, NumRegSlots> RegReady;
  StoreTable StoreReady;
  IssueWindow IssueSlots; ///< OoO issue-width tracking.
  /// Per ROB slot, one past the commit cycle of its latest occupant (0
  /// while never occupied): the earliest cycle the slot can be reused.
  std::vector<uint64_t> RobSlotFree;
  size_t RobHead = 0; ///< the slot the next dispatch takes (ring index).
  uint64_t LastCommitCycle = 0;

  PipelineStats Stats;
  std::vector<MarkerEvent> Markers;
  std::function<void(const InstTimestamps &)> Observer;
  const telemetry::TelemetrySink *Telemetry = nullptr;
};

/// Publishes one MicroarchState's structure statistics (cache.*,
/// predictor.*, btb.*, ras.*) to the telemetry counter registry. Called by
/// ~Pipeline for cold-run state and by the sampled runner for the state it
/// keeps warm across intervals.
void publishUarchCounters(const MicroarchState &Uarch);

} // namespace bor

#endif // BOR_UARCH_PIPELINE_H
