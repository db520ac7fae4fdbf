//===- exp/Json.h - Minimal JSON rendering for result records ------------===//
//
// Part of the branch-on-random reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Just enough JSON to emit the experiment runner's machine-readable
/// results — string escaping, deterministic number formatting, and a small
/// single-object writer used to build one JSON-lines record at a time —
/// plus a small recursive-descent parser (jsonParse into a JsonValue DOM)
/// so tests and tools can round-trip-validate what the library wrote:
/// result records, telemetry trace files. The parser favours strictness
/// over speed; nothing on a measurement path parses JSON.
///
//===----------------------------------------------------------------------===//

#ifndef BOR_EXP_JSON_H
#define BOR_EXP_JSON_H

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bor {
namespace exp {

/// Escapes \p S for inclusion inside a JSON string literal (without the
/// surrounding quotes): quote, backslash and control characters become
/// their escape sequences; everything else passes through byte-for-byte.
std::string jsonEscape(std::string_view S);

/// Renders \p V as a JSON number. Integral values in the exactly-
/// representable range print without a decimal point; other finite values
/// print with the shortest precision that round-trips through strtod;
/// non-finite values (which JSON cannot express) print as null.
std::string jsonNumber(double V);

/// Renders an unsigned integer as a JSON number (exact, never scientific).
std::string jsonNumber(uint64_t V);

/// Accumulates one flat JSON object, `field` by `field`, preserving
/// insertion order. finish() closes the object and returns it.
class JsonObjectWriter {
public:
  /// Adds "key": "value" with \p Value escaped and quoted.
  void field(std::string_view Key, std::string_view Value);

  /// Adds "key": <raw> where \p Raw is already valid JSON (a number, an
  /// object, an array...).
  void fieldRaw(std::string_view Key, std::string_view Raw);

  /// Closes and returns the object. The writer must not be reused.
  std::string finish();

private:
  void comma();

  std::string Buf = "{";
  bool First = true;
};

/// One parsed JSON value: a small tagged DOM. Only the member matching
/// the kind is meaningful; objects keep their fields in source order and
/// allow duplicate keys (find() returns the first).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool BoolVal = false;
  double Num = 0.0;
  std::string Str;
  std::vector<JsonValue> Elems;
  std::vector<std::pair<std::string, JsonValue>> Fields;

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Object field lookup; null when this is not an object or the key is
  /// absent.
  const JsonValue *find(std::string_view Key) const;
};

/// Reads a parsed JSON number as an integer of type T no smaller than
/// \p Min. Returns false, leaving \p Out unchanged, unless \p V is a
/// whole number in [Min, T's maximum]. The parser keeps numbers as doubles
/// and strtod accepts "-1", "2.5", "1e300" and "1e400" (as infinity); a
/// plain cast of any of them to an integer type truncates or is undefined
/// behaviour.
template <typename T>
bool jsonToInteger(double V, T &Out, T Min = std::numeric_limits<T>::min()) {
  // T spans [Lo, Hi), both exact powers of two; NaN fails the test.
  const double Hi =
      static_cast<double>(std::numeric_limits<T>::max() / 2 + 1) * 2.0;
  const double Lo = std::numeric_limits<T>::is_signed ? -Hi : 0.0;
  if (!(V >= Lo && V < Hi) || V != std::floor(V))
    return false;
  T I = static_cast<T>(V);
  if (I < Min)
    return false;
  Out = I;
  return true;
}

/// Parses \p Text (one complete JSON value, surrounding whitespace
/// allowed) into \p Out. Returns false and sets \p Err to
/// "offset N: <what went wrong>" on malformed input. Strict: no trailing
/// garbage, no comments, no unpaired surrogates; \uXXXX escapes decode to
/// UTF-8. Nesting is capped generously to keep recursion bounded.
bool jsonParse(std::string_view Text, JsonValue &Out, std::string &Err);

} // namespace exp
} // namespace bor

#endif // BOR_EXP_JSON_H
