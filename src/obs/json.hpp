// Minimal shared JSON DOM + strict parser.
//
// Grown out of the trace reader's private parser once the health plane
// needed to load dashboard files with the same code that validates them in
// CI (tools/mh_health --check). Numbers are doubles — nothing we serialize
// needs more than 2^53 integer precision — and non-finite numbers are
// rejected on input, which is what makes the bench/dashboard validators
// able to promise "every value in this file is finite".
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mh::obs::json {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(std::string_view key) const;
  /// Value of a numeric member, or `fallback` when absent / not a number.
  double num(std::string_view key, double fallback = 0.0) const;
  /// A numeric member as a whole number in [0, max], for readers that
  /// count or index with it: `*out` is 0 when the member is absent.
  /// Returns false, leaving `*out` alone, when it is present but not a
  /// number, fractional, negative or above `max` — casting such a double
  /// to an integer type is undefined behaviour.
  bool whole(std::string_view key, std::uint64_t max,
             std::uint64_t* out) const;
  /// Value of a string member, or empty when absent / not a string.
  std::string_view text(std::string_view key) const;
};

/// Strict single-document parser: rejects trailing data, unescaped control
/// characters, non-finite numbers, and arrays/objects nested deeper than
/// kMaxDepth (the parser recurses once per level, so an unbounded depth
/// would overflow the stack).
class JsonParser {
 public:
  /// Far above the few levels our trace, dashboard and bench writers nest.
  static constexpr std::size_t kMaxDepth = 512;

  explicit JsonParser(std::string_view input) : in_(input) {}

  bool parse(JsonValue* out, std::string* error);

 private:
  bool fail(const std::string& what);
  void skip_ws();
  bool consume(char c);
  bool literal(std::string_view word);
  bool value(JsonValue& out);
  bool object(JsonValue& out);
  bool array(JsonValue& out);
  bool string(std::string& out);
  bool number(JsonValue& out);

  std::string_view in_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
  std::string error_;
};

/// Parse a whole document. Returns false and fills `error` on failure.
bool parse(std::string_view text, JsonValue* out, std::string* error);

/// Escape and double-quote `s` as a JSON string.
void write_escaped(std::ostream& os, std::string_view s);

/// `v` as a JSON number with six significant digits ("%.6g"); non-finite
/// values, which JSON cannot hold, are written as 0.
void write_number(std::ostream& os, double v);

}  // namespace mh::obs::json
