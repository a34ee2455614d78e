#ifndef UNILOG_COMMON_JSON_H_
#define UNILOG_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace unilog {

/// A minimal JSON document model. The paper's first-generation frontend
/// logs captured user interactions "in JSON format... often nested several
/// layers deep" (§3.1); the legacy-format baseline reproduces that world,
/// and the client event catalog exports JSON. This is deliberately a small,
/// strict parser: no comments, no trailing commas, UTF-8 passthrough.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}

  static Json Null() { return Json(); }
  static Json Bool(bool v);
  static Json Number(double v);
  static Json Int(int64_t v);
  static Json Str(std::string v);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_bool() const { return type_ == Type::kBool; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  int64_t int_value() const { return static_cast<int64_t>(number_); }
  const std::string& string_value() const { return string_; }
  const std::vector<Json>& array_items() const { return array_; }
  const std::map<std::string, Json>& object_items() const { return object_; }

  /// Object field access; returns a shared null for missing keys.
  const Json& operator[](const std::string& key) const;
  /// Array element access; returns a shared null when out of range.
  const Json& at(size_t i) const;

  /// Object/array mutation.
  void Set(const std::string& key, Json value);
  void Push(Json value);

  /// Serializes to compact JSON text.
  std::string Dump() const;

  /// At most this many arrays and objects may be open at once in a parsed
  /// document, as CompactReader bounds Thrift nesting.
  static constexpr int kMaxNestingDepth = 64;

  /// Parses a complete JSON document. Trailing garbage is an error, and so
  /// is nesting deeper than kMaxNestingDepth (Corruption).
  static Result<Json> Parse(std::string_view text);

 private:
  void DumpTo(std::string* out) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

}  // namespace unilog

#endif  // UNILOG_COMMON_JSON_H_
