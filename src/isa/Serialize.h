//===- isa/Serialize.h - Binary program images ("BORB" container) --------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple binary container for BOR-RISC programs, so workloads can be
/// built once and shipped between the tools (bor-as, bor-dis, bor-run):
///
///   magic "BORB" | u32 version | u32 numInsts | u64 dataBase
///   | u64 dataSize | u32 numSymbols
///   | numInsts x u32 encoded instruction words
///   | dataSize bytes of initialized data
///   | symbols: (u32 nameLen, name bytes, u64 addr)*
///   | version >= 2 only: u32 numSections
///   | sections: (4 tag bytes, u64 size, size payload bytes)*
///
/// Version 1 images end at the symbol table; version 2 appends named
/// sections whose payloads the container treats as opaque bytes, and keeps
/// sections of tags it does not know. The checkpoint subsystem stores a
/// checkpoint library in a "CKPL" section (ckpt/CheckpointLibrary.h owns
/// that payload's encoding); images without sections keep serializing as
/// version 1 so existing files and byte-comparison tests are unaffected.
///
/// All integers are little-endian, written and read through
/// support/ByteCodec.h. Loading validates structure and decodes
/// instructions through the checked isa/Encoding path.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_ISA_SERIALIZE_H
#define BOR_ISA_SERIALIZE_H

#include "isa/Program.h"

#include <array>
#include <string>
#include <vector>

namespace bor {

/// A named opaque payload appended to a version >= 2 container. The
/// container layer neither interprets nor validates payload bytes; owners
/// of a tag (e.g. the checkpoint library for "CKPL") define the encoding.
struct ContainerSection {
  std::array<char, 4> Tag = {{0, 0, 0, 0}};
  std::vector<uint8_t> Bytes;

  bool hasTag(const char (&T)[5]) const {
    return Tag[0] == T[0] && Tag[1] == T[1] && Tag[2] == T[2] &&
           Tag[3] == T[3];
  }
  static ContainerSection make(const char (&T)[5],
                               std::vector<uint8_t> Payload) {
    ContainerSection S;
    S.Tag = {{T[0], T[1], T[2], T[3]}};
    S.Bytes = std::move(Payload);
    return S;
  }
};

/// Serializes \p P into the container format. With no sections the output
/// is a version 1 image, byte-identical to what previous revisions wrote;
/// with sections it is a version 2 image carrying them after the symbols.
std::vector<uint8_t>
serializeProgram(const Program &P,
                 const std::vector<ContainerSection> &Sections = {});

/// Result of deserialization: a program (plus any container sections) or
/// a diagnostic.
struct LoadResult {
  bool Ok = false;
  Program Prog;
  std::vector<ContainerSection> Sections;
  std::string Error;

  /// First section with tag \p T, or nullptr.
  const ContainerSection *findSection(const char (&T)[5]) const {
    for (const ContainerSection &S : Sections)
      if (S.hasTag(T))
        return &S;
    return nullptr;
  }
};

/// Parses a container image produced by serializeProgram.
LoadResult deserializeProgram(const std::vector<uint8_t> &Bytes);

/// File convenience wrappers. saveProgram returns false on I/O failure;
/// loadProgramFile reports I/O and format errors through LoadResult.
bool saveProgram(const Program &P, const std::string &Path,
                 const std::vector<ContainerSection> &Sections = {});
LoadResult loadProgramFile(const std::string &Path);

} // namespace bor

#endif // BOR_ISA_SERIALIZE_H
