#ifndef UNILOG_THRIFT_VALUE_H_
#define UNILOG_THRIFT_VALUE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace unilog::thrift {

/// Thrift data types supported by the unilog compact protocol. Mirrors the
/// Apache Thrift type system (minus unions and typedefs).
enum class TType : uint8_t {
  kBool = 1,
  kByte = 2,
  kI16 = 3,
  kI32 = 4,
  kI64 = 5,
  kDouble = 6,
  kString = 7,
  kStruct = 8,
  kList = 9,
  kSet = 10,
  kMap = 11,
};

/// Stable name for a type ("i32", "string", ...).
const char* TTypeName(TType t);

class ThriftValue;

/// Struct payload: field-id -> value. An ordered map keeps serialization
/// deterministic (Thrift requires ascending field ids for the compact
/// protocol's delta encoding anyway).
struct StructData {
  std::map<int16_t, ThriftValue> fields;
};

/// List or set payload.
struct ListData {
  TType elem_type = TType::kString;
  bool is_set = false;
  std::vector<ThriftValue> elems;
};

/// Map payload. Entries preserve insertion order.
struct MapData {
  TType key_type = TType::kString;
  TType value_type = TType::kString;
  std::vector<std::pair<ThriftValue, ThriftValue>> entries;
};

/// A dynamically-typed Thrift value: the in-memory form of any message the
/// compact protocol can carry. Used wherever unilog handles messages whose
/// schema is not known at compile time — the catalog's payload sampling,
/// generic record readers, and the legacy-format conversion shims.
class ThriftValue {
 public:
  /// Default-constructed value is a bool false; use the factories below.
  ThriftValue() : repr_(false) {}

  static ThriftValue Bool(bool v) { return ThriftValue(Repr(v)); }
  static ThriftValue Byte(int8_t v) { return ThriftValue(Repr(v)); }
  static ThriftValue I16(int16_t v) { return ThriftValue(Repr(v)); }
  static ThriftValue I32(int32_t v) { return ThriftValue(Repr(v)); }
  static ThriftValue I64(int64_t v) { return ThriftValue(Repr(v)); }
  static ThriftValue Double(double v) { return ThriftValue(Repr(v)); }
  static ThriftValue String(std::string v) {
    return ThriftValue(Repr(std::move(v)));
  }
  static ThriftValue Struct(StructData v = {}) {
    return ThriftValue(Repr(std::move(v)));
  }
  static ThriftValue List(ListData v) { return ThriftValue(Repr(std::move(v))); }
  static ThriftValue Map(MapData v) { return ThriftValue(Repr(std::move(v))); }

  TType type() const;

  bool is_bool() const { return std::holds_alternative<bool>(repr_); }
  bool is_struct() const { return std::holds_alternative<StructData>(repr_); }
  bool is_string() const { return std::holds_alternative<std::string>(repr_); }

  /// Typed accessors; abort on type mismatch (callers check type() first or
  /// use the As* Result variants).
  bool bool_value() const { return std::get<bool>(repr_); }
  int8_t byte_value() const { return std::get<int8_t>(repr_); }
  int16_t i16_value() const { return std::get<int16_t>(repr_); }
  int32_t i32_value() const { return std::get<int32_t>(repr_); }
  int64_t i64_value() const { return std::get<int64_t>(repr_); }
  double double_value() const { return std::get<double>(repr_); }
  const std::string& string_value() const { return std::get<std::string>(repr_); }
  const StructData& struct_value() const { return std::get<StructData>(repr_); }
  StructData& mutable_struct() { return std::get<StructData>(repr_); }
  const ListData& list_value() const { return std::get<ListData>(repr_); }
  ListData& mutable_list() { return std::get<ListData>(repr_); }
  const MapData& map_value() const { return std::get<MapData>(repr_); }
  MapData& mutable_map() { return std::get<MapData>(repr_); }

  /// Checked accessors.
  Result<int64_t> AsI64() const;

  /// Struct convenience: the field with the given id, or nullptr.
  const ThriftValue* FindField(int16_t id) const;
  /// Struct convenience: sets/overwrites a field.
  void SetField(int16_t id, ThriftValue v);

  /// Deep equality (including types).
  bool Equals(const ThriftValue& other) const;

  /// Debug rendering, e.g. {1: "web:home:...", 3: 42}.
  std::string ToString() const;

 private:
  using Repr = std::variant<bool, int8_t, int16_t, int32_t, int64_t, double,
                            std::string, StructData, ListData, MapData>;
  explicit ThriftValue(Repr repr) : repr_(std::move(repr)) {}

  Repr repr_;
};

inline bool operator==(const ThriftValue& a, const ThriftValue& b) {
  return a.Equals(b);
}

}  // namespace unilog::thrift

#endif  // UNILOG_THRIFT_VALUE_H_
