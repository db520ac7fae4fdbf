//===- tests/Mutations.h - Truncation and bit-flip sweeps for decoders ----===//
//
// The mutation loop behind the text-decoder sweeps: every truncation and
// every single-bit flip of a real document must either parse or fail with
// an error, never crash (the asan-ubsan preset runs them).
//
//===----------------------------------------------------------------------===//

#ifndef BOR_TESTS_MUTATIONS_H
#define BOR_TESTS_MUTATIONS_H

#include <string>

namespace bor {
namespace testgen {

/// Calls \p Visit on every proper prefix of \p Doc, then on \p Doc with
/// each single bit flipped in turn.
template <typename Fn> void forEachMutation(const std::string &Doc, Fn Visit) {
  for (size_t Len = 0; Len != Doc.size(); ++Len)
    Visit(Doc.substr(0, Len));
  std::string Flipped = Doc;
  for (size_t Bit = 0; Bit != 8 * Doc.size(); ++Bit) {
    char &C = Flipped[Bit / 8];
    C = static_cast<char>(C ^ (1 << (Bit % 8)));
    Visit(Flipped);
    C = static_cast<char>(C ^ (1 << (Bit % 8)));
  }
}

} // namespace testgen
} // namespace bor

#endif // BOR_TESTS_MUTATIONS_H
