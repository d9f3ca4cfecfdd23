#ifndef FUXI_COMMON_JSON_H_
#define FUXI_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fuxi {

/// A small self-contained JSON document model. Fuxi job descriptions are
/// JSON files (paper §4.1, Figure 6); this module parses and serializes
/// them without external dependencies.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  // std::map keeps object keys ordered so serialization is deterministic.
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}             // NOLINT
  Json(double d) : type_(Type::kNumber), number_(d) {}       // NOLINT
  Json(int i) : Json(static_cast<double>(i)) {}              // NOLINT
  Json(int64_t i) : Json(static_cast<double>(i)) {}          // NOLINT
  Json(uint64_t i) : Json(static_cast<double>(i)) {}         // NOLINT
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}              // NOLINT
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}    // NOLINT
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}  // NOLINT

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  int64_t as_int() const { return static_cast<int64_t>(number_); }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  Array& as_array() { return array_; }
  const Object& as_object() const { return object_; }
  Object& as_object() { return object_; }

  /// Object lookup; returns nullptr when absent or not an object.
  const Json* Find(const std::string& key) const {
    if (type_ != Type::kObject) return nullptr;
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
  }

  /// Object field access, inserting null values as needed.
  /// Precondition: *this is an object (or null, which becomes an object).
  Json& operator[](const std::string& key) {
    if (type_ == Type::kNull) *this = MakeObject();
    return object_[key];
  }

  /// Appends to an array (null becomes an empty array first).
  void Append(Json value) {
    if (type_ == Type::kNull) *this = MakeArray();
    array_.push_back(std::move(value));
  }

  /// Typed getters with defaults, for tolerant config reading.
  std::string GetString(const std::string& key,
                        const std::string& fallback = "") const;
  double GetNumber(const std::string& key, double fallback = 0) const;
  int64_t GetInt(const std::string& key, int64_t fallback = 0) const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  /// Serializes to compact JSON text.
  std::string Dump() const;
  /// Serializes with 2-space indentation.
  std::string Pretty() const;

  /// Parses JSON text. Errors report byte offsets.
  static Result<Json> Parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// An immutable document shared by reference. A worker description is
/// built once by its application master and every StartWorkerRpc and
/// process started from it points at that one object; null means "no
/// description".
using SharedJson = std::shared_ptr<const Json>;

}  // namespace fuxi

#endif  // FUXI_COMMON_JSON_H_
