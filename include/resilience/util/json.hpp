#pragma once

// Dependency-free JSON: a small value type, a strict recursive-descent
// reader (sufficient for service requests) and a canonical writer. The
// writer is deterministic — objects keep insertion order, doubles use the
// shortest representation that round-trips bit-exactly — so
// serialize -> parse -> re-serialize is byte-identical. That identity is
// what lets the sweep service cache and replay tables without ever
// re-deriving floating-point values from text approximations.
//
// One deliberate extension beyond RFC 8259: non-finite doubles are
// written as the bare tokens Infinity / -Infinity / NaN and the reader
// accepts them. Sweep cells legitimately carry +inf (evaluator-rejected
// patterns), and both ends of the wire are this library.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace resilience::util {

/// Parse/serialization failure. `offset`/`line`/`column` locate the
/// offending byte in the input (1-based line/column).
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, std::size_t offset, std::size_t line,
            std::size_t column);

  std::size_t offset = 0;
  std::size_t line = 0;
  std::size_t column = 0;
};

/// One JSON value. Numbers are doubles (64-bit ints beyond 2^53 — e.g.
/// grid signatures — travel as hex strings instead). Objects preserve
/// insertion order; duplicate keys are rejected by the parser.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() = default;  // null
  JsonValue(std::nullptr_t) {}
  JsonValue(bool value) : type_(Type::kBool), bool_(value) {}
  JsonValue(double value) : type_(Type::kNumber), number_(value) {}
  JsonValue(int value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(std::int64_t value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(std::size_t value) : JsonValue(static_cast<double>(value)) {}
  JsonValue(const char* value) : type_(Type::kString), string_(value) {}
  JsonValue(std::string value)
      : type_(Type::kString), string_(std::move(value)) {}
  JsonValue(Array value) : type_(Type::kArray), array_(std::move(value)) {}
  JsonValue(Object value) : type_(Type::kObject), object_(std::move(value)) {}

  static JsonValue array() { return JsonValue(Array{}); }
  static JsonValue object() { return JsonValue(Object{}); }

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return type_ == Type::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed accessors; throw JsonError on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Object lookup; nullptr when absent (or when this is not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Builder helpers. set() appends (keys are expected unique by
  /// construction); push_back() appends to an array. Both throw JsonError
  /// when called on the wrong type.
  void set(std::string key, JsonValue value);
  void push_back(JsonValue value);

  /// Canonical serialization: compact (no whitespace) when indent < 0,
  /// pretty-printed with `indent` spaces per level otherwise.
  [[nodiscard]] std::string dump(int indent = -1) const;
  void dump_to(std::string& out, int indent = -1) const;

  /// Strict parse of a complete document (trailing garbage rejected).
  static JsonValue parse(std::string_view text);

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Appends the shortest decimal representation of `value` that strtod()s
/// back to the same bits ("3", "0.1", "1.25e-07"); Infinity/-Infinity/NaN
/// for non-finite values. This is the one double formatter every
/// serializer in the project uses — byte-identical round trips depend on
/// it. format_json_number() is the same text as a new string.
void append_json_number(std::string& out, double value);
[[nodiscard]] std::string format_json_number(double value);

/// Appends the escaped, quoted JSON string literal for `text`: '"', '\'
/// and the short escapes \b \f \n \r \t, other bytes below 0x20 as
/// \u00XX, everything else (UTF-8 included) verbatim. json_quote() is
/// the same text as a new string.
void append_json_quote(std::string& out, std::string_view text);
[[nodiscard]] std::string json_quote(std::string_view text);

}  // namespace resilience::util
