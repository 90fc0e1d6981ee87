// Minimal JSON reader for the observability layer's own exports.
//
// The registry and tracer emit JSON; tests, the shell, and tooling need to
// read those exports back (round-trip verification, counting trace events,
// cross-checking aggregated counters against CommandStats). This is a small
// strict parser for exactly that: full JSON syntax, numbers as double
// (counter magnitudes in practice stay well inside the 2^53 exact range).
// It is an offline/verification tool, never on a hot path.
// concord-lint: emit-path — bytes or messages produced here must not depend on
// hash-map iteration order.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace concord::obs::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  explicit Value(bool b) : kind_(Kind::kBool), num_(b ? 1 : 0) {}
  explicit Value(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  explicit Value(Array a) : kind_(Kind::kArray), arr_(std::make_unique<Array>(std::move(a))) {}
  explicit Value(Object o)
      : kind_(Kind::kObject), obj_(std::make_unique<Object>(std::move(o))) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  /// A number's value; a boolean reads 1 or 0.
  [[nodiscard]] double as_number() const noexcept { return num_; }
  [[nodiscard]] std::int64_t as_int() const noexcept { return static_cast<std::int64_t>(num_); }
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }
  [[nodiscard]] const Array& as_array() const noexcept { return *arr_; }

  /// Object member access; nullptr if this is not an object or has no such
  /// member.
  [[nodiscard]] const Value* get(std::string_view key) const;

  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;
  Value(const Value&) = delete;
  Value& operator=(const Value&) = delete;

 private:
  Kind kind_ = Kind::kNull;
  double num_ = 0;
  std::string str_;
  std::unique_ptr<Array> arr_;
  std::unique_ptr<Object> obj_;
};

/// Parses one complete JSON document (trailing garbage is an error).
[[nodiscard]] Result<Value> parse(std::string_view text);

/// Appends `s` to `out` as JSON string *content* (no surrounding quotes):
/// quotes, backslashes, and control characters are escaped so the result
/// always round-trips through parse(). Every emitter in the observability
/// layer shares this one definition.
void escape(std::string& out, std::string_view s);

}  // namespace concord::obs::json
