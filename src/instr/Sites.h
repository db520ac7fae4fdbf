//===- instr/Sites.h - Instrumentation sites and profile counters --------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instrumentation in this reproduction is what it is in the paper:
/// ordinary code, with full access to architectural state, that records
/// information into memory — here, 64-bit counters in the program's data
/// segment. A ProfileTable allocates a block of counters close to the
/// globals base (so 16-bit displacements reach them) and reads them back
/// out of simulated memory after a run.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_INSTR_SITES_H
#define BOR_INSTR_SITES_H

#include "isa/ProgramBuilder.h"
#include "sim/Machine.h"

#include <vector>

namespace bor {

/// A block of profile counters in the data segment.
class ProfileTable {
public:
  /// Reserves \p NumCounters zeroed 64-bit counters and names the block
  /// \p Name in the program's symbol table.
  ProfileTable(ProgramBuilder &B, const std::string &Name,
               size_t NumCounters);

  uint64_t baseAddr() const { return Base; }
  size_t numCounters() const { return NumCounters; }

  uint64_t counterAddr(size_t I) const {
    assert(I < NumCounters && "counter index out of range");
    return Base + 8 * I;
  }

  /// Emits the canonical instrumentation body: a load/add/store increment
  /// of counter \p I, addressed off \p BaseReg, which the caller guarantees
  /// holds the address \p BaseRegValue at runtime. This 3-instruction
  /// load/add/store is the "do_profile" used throughout the overhead
  /// experiments.
  void emitIncrement(ProgramBuilder &B, size_t I, uint8_t BaseReg,
                     uint64_t BaseRegValue, uint8_t ScratchReg) const;

  /// Reads all counters back from a machine after simulation.
  std::vector<uint64_t> read(const Machine &M) const;

private:
  uint64_t Base;
  size_t NumCounters;
};

} // namespace bor

#endif // BOR_INSTR_SITES_H
