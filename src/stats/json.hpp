#pragma once
// Minimal JSON support for the stats subsystem: a canonical number formatter
// (shortest round-trip decimal, so exports are byte-deterministic AND
// readable), and a small recursive-descent parser into an ordered DOM used by
// `tools/statsview` and the invariant tests.  No external dependencies.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stats::json {

/// Shortest decimal representation of `v` that strtod round-trips to the same
/// bits (tries %.15g, %.16g, %.17g).  NaN/Inf are not valid JSON; they are
/// emitted as 0 (the stats pipeline never produces them).
std::string format_double(double v);

/// JSON string escaping (quotes, backslash, control characters).
std::string escape(const std::string& s);

// ---- DOM + parser ------------------------------------------------------------

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  ///< preserves key order

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;
  /// `find(key)->number`, or 0 when absent or not a number.
  double num(const std::string& key) const;
  /// `find(key)->string`, or "" when absent or not a string.
  std::string str(const std::string& key) const;
};

/// Parses `text` into `out`.  On failure returns false and, when `err` is
/// given, fills it with a message including the byte offset.
bool parse(const std::string& text, Value& out, std::string* err = nullptr);

}  // namespace stats::json
