// Minimal ordered JSON value tree + serializer/parser for the
// machine-readable experiment artifacts (BENCH_<id>.json,
// tuned_configs.json). No external dependencies; object members keep
// insertion order so artifacts diff cleanly across runs and survive a
// parse → dump round trip byte-identically.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace vafs::exp {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(std::int64_t v) : Json(static_cast<double>(v)) {}
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool empty() const { return items_.empty() && members_.empty(); }

  // Value accessors; each returns the stored value only for the matching
  // kind (callers check kind() — artifacts consumed here are
  // schema-checked, not duck-typed).
  bool boolean() const { return bool_; }
  double number() const { return num_; }
  const std::string& str() const { return str_; }
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const { return members_; }

  /// Array append. Aborts (assert) on non-arrays.
  Json& push(Json v);
  /// Object insert-or-replace, preserving first-insertion order.
  Json& set(std::string key, Json value);
  /// Object member lookup; nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;

  std::string dump(int indent = 2) const;

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;                            // kArray
  std::vector<std::pair<std::string, Json>> members_;  // kObject
};

/// Shortest round-trip decimal rendering of a double (JSON number syntax;
/// non-finite values render as null).
std::string json_number(double v);

/// Appends `s` as a quoted JSON string literal: quote, backslash, \n, \r
/// and \t get their short escapes, other control bytes \u00XX. Every
/// hand-built JSON line (spool rows, quarantine records) goes through this.
void json_quote(std::string& out, std::string_view s);
std::string json_quote(std::string_view s);

/// Strict RFC 8259 parser for the artifacts this module writes (and any
/// well-formed JSON): no comments, no trailing commas, no garbage after
/// the top-level value. On failure returns false and sets *error to a
/// message with the byte offset; *out is left null. Duplicate object keys
/// keep the last value (matching Json::set semantics). Nesting deeper
/// than an internal cap (far beyond any artifact) is rejected rather than
/// risking stack exhaustion on adversarial input.
bool json_parse(std::string_view text, Json* out, std::string* error);

}  // namespace vafs::exp
