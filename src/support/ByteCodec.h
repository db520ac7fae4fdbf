//===- support/ByteCodec.h - Little-endian binary encoding ----------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one codec behind the repository's binary formats: the BORB program
/// container (isa/Serialize.h) and the CKPL checkpoint library payload
/// (ckpt/CheckpointLibrary.h). Writers append fixed-width little-endian
/// integers to a byte vector; ByteReader reads them back with every access
/// bounds-checked, so a truncated or inflated input makes the decoder fail
/// instead of reading past the end.
///
/// Header-only on purpose: a library-pool lookup serializes a whole program
/// to key it, and a warm checkpoint cache decodes every library it loads,
/// so each field must stay an inlined loop rather than a call.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_SUPPORT_BYTECODEC_H
#define BOR_SUPPORT_BYTECODEC_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace bor {

/// Appends \p V as 4 little-endian bytes.
inline void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

/// Appends \p V as 8 little-endian bytes.
inline void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

/// Bounds-checked little-endian reader over bytes it does not own. A read
/// past the end returns 0, consumes nothing and sets failed(), which stays
/// set; decoders test it once after a group of fields.
class ByteReader {
public:
  explicit ByteReader(const std::vector<uint8_t> &Bytes) : Bytes(Bytes) {}

  bool failed() const { return Failed; }
  bool atEnd() const { return Pos == Bytes.size(); }
  size_t remaining() const { return Bytes.size() - Pos; }

  uint8_t u8() { return static_cast<uint8_t>(uint(1)); }
  uint32_t u32() { return static_cast<uint32_t>(uint(4)); }
  uint64_t u64() { return uint(8); }

  /// Copies the next \p N bytes to \p Dst. Returns false, copying nothing,
  /// when fewer than \p N remain.
  bool bytes(void *Dst, size_t N) {
    if (N > remaining()) {
      Failed = true;
      return false;
    }
    std::memcpy(Dst, Bytes.data() + Pos, N);
    Pos += N;
    return true;
  }

private:
  uint64_t uint(unsigned N) {
    if (N > remaining()) {
      Failed = true;
      return 0;
    }
    uint64_t V = 0;
    for (unsigned I = 0; I != N; ++I)
      V |= static_cast<uint64_t>(Bytes[Pos + I]) << (8 * I);
    Pos += N;
    return V;
  }

  const std::vector<uint8_t> &Bytes;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace bor

#endif // BOR_SUPPORT_BYTECODEC_H
