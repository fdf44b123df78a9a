// Minimal JSON value type with parser and serializer.
//
// EvSel reads platform event descriptions from a JSON file (the paper
// mirrors Intel's per-platform event JSON); measurement reports are also
// exported as JSON. The subset implemented is full JSON minus \u surrogate
// pairs beyond the BMP.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "util/types.hpp"

namespace npat::util {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json;
// Append objects/arrays with emplace_back(std::move(x)), which builds the
// element in place: push_back moves a temporary Json, and gcc 12 flags
// that variant move as -Wmaybe-uninitialized (a false positive).
using JsonArray = std::vector<Json>;
// std::map keeps keys ordered -> deterministic serialization for tests.
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  using Value = std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>;

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(i64 i) : value_(static_cast<double>(i)) {}
  Json(u64 u) : value_(static_cast<double>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool() const { return expect<bool>("bool"); }
  double as_number() const { return expect<double>("number"); }
  i64 as_int() const { return static_cast<i64>(as_number()); }
  const std::string& as_string() const { return expect<std::string>("string"); }
  const JsonArray& as_array() const { return expect<JsonArray>("array"); }
  JsonArray& as_array() { return expect_mut<JsonArray>("array"); }
  const JsonObject& as_object() const { return expect<JsonObject>("object"); }
  JsonObject& as_object() { return expect_mut<JsonObject>("object"); }

  /// Object member access; throws JsonError if missing or not an object.
  const Json& at(const std::string& key) const;
  /// Object member lookup; nullptr if absent.
  const Json* find(const std::string& key) const;
  /// Typed convenience getters with defaults.
  double get_number(const std::string& key, double fallback = 0.0) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  /// Parses a JSON document; throws JsonError with offset info on failure.
  static Json parse(std::string_view text);

  /// Serializes; indent == 0 -> compact single line.
  std::string dump(int indent = 0) const;

  friend bool operator==(const Json& a, const Json& b) { return a.value_ == b.value_; }

 private:
  template <typename T>
  const T& expect(const char* what) const {
    if (const T* p = std::get_if<T>(&value_)) return *p;
    throw JsonError(std::string("JSON value is not a ") + what);
  }
  template <typename T>
  T& expect_mut(const char* what) {
    if (T* p = std::get_if<T>(&value_)) return *p;
    throw JsonError(std::string("JSON value is not a ") + what);
  }

  void dump_to(std::string& out, int indent, int depth) const;

  Value value_;
};

/// Reads an entire file; throws JsonError on I/O failure.
std::string read_file(const std::string& path);
/// Writes an entire file; throws JsonError on I/O failure.
void write_file(const std::string& path, std::string_view contents);

}  // namespace npat::util
