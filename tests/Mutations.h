//===- tests/Mutations.h - Truncation and bit-flip sweeps for decoders ----===//
//
// The mutation loop behind every decoder sweep, text and binary alike:
// every truncation and every single-bit flip of a real document must
// either parse or fail with an error, never crash (the asan-ubsan preset
// runs them).
//
//===----------------------------------------------------------------------===//

#ifndef BOR_TESTS_MUTATIONS_H
#define BOR_TESTS_MUTATIONS_H

#include <cstddef>

namespace bor {
namespace testgen {

/// Calls \p Visit on every proper prefix of \p Doc, then on \p Doc with
/// each single bit flipped in turn. \p Doc is a std::string or a byte
/// vector; every prefix is shorter than \p Doc and every flip is as long.
template <typename Bytes, typename Fn>
void forEachMutation(const Bytes &Doc, Fn Visit) {
  for (size_t Len = 0; Len != Doc.size(); ++Len)
    Visit(Bytes(Doc.begin(), Doc.begin() + Len));
  Bytes Flipped = Doc;
  for (size_t Bit = 0; Bit != 8 * Doc.size(); ++Bit) {
    auto &C = Flipped[Bit / 8];
    using Elem = typename Bytes::value_type;
    C = static_cast<Elem>(C ^ (1 << (Bit % 8)));
    Visit(Flipped);
    C = static_cast<Elem>(C ^ (1 << (Bit % 8)));
  }
}

} // namespace testgen
} // namespace bor

#endif // BOR_TESTS_MUTATIONS_H
