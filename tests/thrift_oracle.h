#ifndef UNILOG_TESTS_THRIFT_ORACLE_H_
#define UNILOG_TESTS_THRIFT_ORACLE_H_

// A dynamic compact-Thrift codec: ThriftValue (any message, no schema), a
// streaming writer for every wire type, SerializeStruct and ParseStruct.
// The library writes and reads only client events, through the typed
// ClientEvent::SerializeTo and ReadClientEventBody; this header is the
// independent side the tests check those against. It shares no code with
// src/thrift: its bytes come from common/coding alone, so a test that
// feeds production's reader oracle-written messages (unknown fields of
// every shape, long-form field ids, nesting) checks the reader against
// bytes it did not write. ThriftValue::ToString is the {id: value, ...}
// notation the event catalog renders samples in.
//
// Deliberately simple: tests and benches use it, no hot path does.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "common/status.h"

namespace unilog::thrift_oracle {

/// Thrift data types (the Apache Thrift type system minus unions).
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

inline const char* TTypeName(TType t) {
  static constexpr const char* kNames[] = {
      "unknown", "bool", "byte",   "i16",  "i32", "i64",
      "double",  "string", "struct", "list", "set", "map"};
  const auto i = static_cast<size_t>(t);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

namespace internal {

// Compact wire nibble of each TType (indexed by its value; bools are
// written as 1 = true, 2 = false), and the TType of each nibble (0 = none).
inline constexpr uint8_t kWireOf[] = {0, 1, 3, 4, 5, 6, 7, 8, 12, 9, 10, 11};
inline constexpr uint8_t kTypeOfWire[] = {0, 1, 1, 2, 3,  4,  5, 6,
                                          7, 9, 10, 11, 8, 0, 0, 0};

inline uint8_t Wire(TType t) { return kWireOf[static_cast<size_t>(t)]; }

}  // namespace internal

class ThriftValue;

/// Field id -> value, ascending (the order the writer emits them in).
struct StructData {
  std::map<int16_t, ThriftValue> fields;
};

/// List or set payload.
struct ListData {
  TType elem_type = TType::kString;
  bool is_set = false;
  std::vector<ThriftValue> elems;
};

/// Map payload. Entries keep insertion order.
struct MapData {
  TType key_type = TType::kString;
  TType value_type = TType::kString;
  std::vector<std::pair<ThriftValue, ThriftValue>> entries;
};

/// A dynamically typed Thrift value.
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

  TType type() const {
    static constexpr TType kByIndex[] = {
        TType::kBool,   TType::kByte,   TType::kI16,    TType::kI32,
        TType::kI64,    TType::kDouble, TType::kString, TType::kStruct,
        TType::kList,   TType::kMap};
    if (const auto* l = std::get_if<ListData>(&repr_); l && l->is_set) {
      return TType::kSet;
    }
    return kByIndex[repr_.index()];
  }

  bool is_struct() const { return std::holds_alternative<StructData>(repr_); }

  /// Typed accessors; throw std::bad_variant_access on a type mismatch.
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
  const MapData& map_value() const { return std::get<MapData>(repr_); }

  /// Any integer type, widened.
  Result<int64_t> AsI64() const {
    switch (type()) {
      case TType::kByte:
        return static_cast<int64_t>(byte_value());
      case TType::kI16:
        return static_cast<int64_t>(i16_value());
      case TType::kI32:
        return static_cast<int64_t>(i32_value());
      case TType::kI64:
        return i64_value();
      default:
        return Status::InvalidArgument(std::string("not an integer: ") +
                                       TTypeName(type()));
    }
  }

  /// Struct field with the given id, or nullptr.
  const ThriftValue* FindField(int16_t id) const {
    if (!is_struct()) return nullptr;
    const auto& fields = struct_value().fields;
    auto it = fields.find(id);
    return it == fields.end() ? nullptr : &it->second;
  }

  void SetField(int16_t id, ThriftValue v) {
    mutable_struct().fields.insert_or_assign(id, std::move(v));
  }

  /// Deep equality, types included. The wire carries no key or value
  /// types for an empty map, so those of empty maps are not compared.
  bool Equals(const ThriftValue& other) const {
    if (type() != other.type()) return false;
    return std::visit([&other](const auto& a) { return Same(a, other); },
                      repr_);
  }

  /// Debug rendering: {1: "web:home:...", 3: 42, 7: <"k": "v">}; lists
  /// are [..], sets #[..]; strings are quoted, their bytes unescaped.
  std::string ToString() const {
    std::ostringstream os;
    switch (type()) {
      case TType::kBool:
        os << (bool_value() ? "true" : "false");
        break;
      case TType::kByte:
        os << static_cast<int>(byte_value());
        break;
      case TType::kI16:
        os << i16_value();
        break;
      case TType::kI32:
        os << i32_value();
        break;
      case TType::kI64:
        os << i64_value();
        break;
      case TType::kDouble:
        os << double_value();
        break;
      case TType::kString:
        os << '"' << string_value() << '"';
        break;
      case TType::kStruct: {
        os << '{';
        const char* sep = "";
        for (const auto& [id, v] : struct_value().fields) {
          os << sep << id << ": " << v.ToString();
          sep = ", ";
        }
        os << '}';
        break;
      }
      case TType::kList:
      case TType::kSet: {
        os << (type() == TType::kSet ? "#[" : "[");
        const char* sep = "";
        for (const auto& e : list_value().elems) {
          os << sep << e.ToString();
          sep = ", ";
        }
        os << ']';
        break;
      }
      case TType::kMap: {
        os << '<';
        const char* sep = "";
        for (const auto& [k, v] : map_value().entries) {
          os << sep << k.ToString() << ": " << v.ToString();
          sep = ", ";
        }
        os << '>';
        break;
      }
    }
    return os.str();
  }

 private:
  // Alternative order matches type()'s kByIndex.
  using Repr = std::variant<bool, int8_t, int16_t, int32_t, int64_t, double,
                            std::string, StructData, ListData, MapData>;
  explicit ThriftValue(Repr repr) : repr_(std::move(repr)) {}

  template <typename T>
  static bool Same(const T& a, const ThriftValue& o) {
    return a == std::get<T>(o.repr_);
  }
  static bool Same(const StructData& a, const ThriftValue& o) {
    const auto& b = o.struct_value().fields;
    return std::equal(a.fields.begin(), a.fields.end(), b.begin(), b.end(),
                      [](const auto& x, const auto& y) {
                        return x.first == y.first && x.second.Equals(y.second);
                      });
  }
  static bool Same(const ListData& a, const ThriftValue& o) {
    const ListData& b = o.list_value();
    return a.elem_type == b.elem_type &&
           std::equal(a.elems.begin(), a.elems.end(), b.elems.begin(),
                      b.elems.end(), [](const auto& x, const auto& y) {
                        return x.Equals(y);
                      });
  }
  static bool Same(const MapData& a, const ThriftValue& o) {
    const MapData& b = o.map_value();
    if (!a.entries.empty() &&
        (a.key_type != b.key_type || a.value_type != b.value_type)) {
      return false;
    }
    return std::equal(a.entries.begin(), a.entries.end(), b.entries.begin(),
                      b.entries.end(), [](const auto& x, const auto& y) {
                        return x.first.Equals(y.first) &&
                               x.second.Equals(y.second);
                      });
  }

  Repr repr_;
};

/// Streaming compact-protocol writer for every wire type. Field ids are
/// delta-encoded against the previous field of the open struct; a delta
/// outside 1..15 takes the long form (type byte, zigzag varint id). The
/// typed writers let a test repeat, reorder or omit fields, which a
/// ThriftValue struct cannot hold.
class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  void BeginStruct() { last_field_.push_back(0); }
  void EndStruct() {
    out_->push_back('\0');  // STOP
    last_field_.pop_back();
  }

  void WriteBoolField(int16_t id, bool v) {
    WriteField(id, ThriftValue::Bool(v));
  }
  void WriteI32Field(int16_t id, int32_t v) {
    WriteField(id, ThriftValue::I32(v));
  }
  void WriteI64Field(int16_t id, int64_t v) {
    WriteField(id, ThriftValue::I64(v));
  }
  void WriteDoubleField(int16_t id, double v) {
    WriteField(id, ThriftValue::Double(v));
  }
  void WriteStringField(int16_t id, std::string_view v) {
    WriteField(id, ThriftValue::String(std::string(v)));
  }
  /// Follow with BeginStruct(), the fields, EndStruct().
  void WriteStructFieldHeader(int16_t id) {
    Header(id, internal::Wire(TType::kStruct));
  }
  /// Follow with `count` bare elements.
  void WriteListFieldHeader(int16_t id, TType elem, uint32_t count) {
    Header(id, internal::Wire(TType::kList));
    ListHeader(elem, count);
  }
  /// Follow with `count` bare key, value pairs.
  void WriteMapFieldHeader(int16_t id, TType key, TType value,
                           uint32_t count) {
    Header(id, internal::Wire(TType::kMap));
    MapHeader(key, value, count);
  }

  /// Bare (headerless) elements of lists and maps.
  void WriteI32(int32_t v) { WriteValue(ThriftValue::I32(v)); }
  void WriteI64(int64_t v) { WriteValue(ThriftValue::I64(v)); }
  void WriteString(std::string_view v) { PutLengthPrefixed(out_, v); }

  /// Any value as field `id` of the open struct; a bool rides in the
  /// header's type nibble.
  void WriteField(int16_t id, const ThriftValue& v) {
    if (v.type() == TType::kBool) {
      return Header(id, v.bool_value() ? 1 : 2);
    }
    Header(id, internal::Wire(v.type()));
    WriteValue(v);
  }

  /// Any value as a bare element (a struct writes its fields and STOP).
  void WriteValue(const ThriftValue& v) {
    switch (v.type()) {
      case TType::kBool:
        return out_->push_back(v.bool_value() ? '\x01' : '\x02');
      case TType::kByte:
        return out_->push_back(static_cast<char>(v.byte_value()));
      case TType::kI16:
        return PutVarint64(out_, ZigZagEncode32(v.i16_value()));
      case TType::kI32:
        return PutVarint64(out_, ZigZagEncode32(v.i32_value()));
      case TType::kI64:
        return PutVarint64(out_, ZigZagEncode64(v.i64_value()));
      case TType::kDouble: {
        uint64_t bits;
        const double d = v.double_value();
        std::memcpy(&bits, &d, sizeof(bits));
        return PutFixed64(out_, bits);
      }
      case TType::kString:
        return WriteString(v.string_value());
      case TType::kStruct:
        BeginStruct();
        for (const auto& [id, field] : v.struct_value().fields) {
          WriteField(id, field);
        }
        return EndStruct();
      case TType::kList:
      case TType::kSet: {
        const ListData& l = v.list_value();
        ListHeader(l.elem_type, static_cast<uint32_t>(l.elems.size()));
        for (const auto& e : l.elems) WriteValue(e);
        return;
      }
      case TType::kMap: {
        const MapData& m = v.map_value();
        MapHeader(m.key_type, m.value_type,
                  static_cast<uint32_t>(m.entries.size()));
        for (const auto& [k, val] : m.entries) {
          WriteValue(k);
          WriteValue(val);
        }
        return;
      }
    }
  }

 private:
  void Header(int16_t id, uint8_t wire) {
    int16_t& last = last_field_.back();
    const int32_t delta = id - last;
    if (delta >= 1 && delta <= 15) {
      out_->push_back(static_cast<char>((delta << 4) | wire));
    } else {
      out_->push_back(static_cast<char>(wire));
      PutVarint64(out_, ZigZagEncode32(id));
    }
    last = id;
  }

  void ListHeader(TType elem, uint32_t count) {
    const uint8_t et = internal::Wire(elem);
    if (count < 15) {
      out_->push_back(static_cast<char>((count << 4) | et));
    } else {
      out_->push_back(static_cast<char>(0xF0 | et));
      PutVarint64(out_, count);
    }
  }

  void MapHeader(TType key, TType value, uint32_t count) {
    PutVarint64(out_, count);
    if (count > 0) {
      out_->push_back(static_cast<char>((internal::Wire(key) << 4) |
                                        internal::Wire(value)));
    }
  }

  std::string* out_;
  std::vector<int16_t> last_field_;
};

/// Appends the compact encoding of `value`, which must be a struct.
inline Status SerializeStruct(const ThriftValue& value, std::string* out) {
  if (!value.is_struct()) {
    return Status::InvalidArgument("SerializeStruct: value is not a struct");
  }
  Writer(out).WriteValue(value);
  return Status::OK();
}

namespace internal {

/// Recursive-descent parser. `depth` counts the structs and containers
/// above a value; past kMaxDepth the input is Corruption, so a small
/// hostile message cannot exhaust the stack. A claimed element count
/// reserves no more entries than bytes remain.
class Parser {
 public:
  static constexpr int kMaxDepth = 64;

  explicit Parser(std::string_view data) : dec_(data) {}

  bool AtEnd() const { return dec_.AtEnd(); }

  Status Struct(int depth, ThriftValue* out) {
    *out = ThriftValue::Struct();
    int16_t last = 0;
    while (true) {
      uint8_t byte = 0;
      UNILOG_RETURN_NOT_OK(Byte(&byte));
      if (byte == 0) return Status::OK();
      if (byte >> 4 != 0) {
        last = static_cast<int16_t>(last + (byte >> 4));
      } else {
        uint64_t raw;
        UNILOG_RETURN_NOT_OK(dec_.GetVarint64(&raw));
        last = static_cast<int16_t>(
            ZigZagDecode32(static_cast<uint32_t>(raw)));
      }
      TType type;
      UNILOG_RETURN_NOT_OK(Type(byte & 0x0F, &type));
      ThriftValue field;
      if (type == TType::kBool) {
        field = ThriftValue::Bool((byte & 0x0F) == 1);
      } else {
        UNILOG_RETURN_NOT_OK(Value(type, depth + 1, &field));
      }
      out->SetField(last, std::move(field));
    }
  }

  /// A bare value of `type` (bools take one byte here).
  Status Value(TType type, int depth, ThriftValue* out) {
    if (depth >= kMaxDepth) {
      return Status::Corruption("oracle: values nested too deep");
    }
    switch (type) {
      case TType::kBool: {
        uint8_t b = 0;
        UNILOG_RETURN_NOT_OK(Byte(&b));
        if (b > 2) return Status::Corruption("oracle: bad bool element");
        *out = ThriftValue::Bool(b == 1);
        return Status::OK();
      }
      case TType::kByte: {
        uint8_t b = 0;
        UNILOG_RETURN_NOT_OK(Byte(&b));
        *out = ThriftValue::Byte(static_cast<int8_t>(b));
        return Status::OK();
      }
      case TType::kI16:
      case TType::kI32:
      case TType::kI64: {
        uint64_t raw;
        UNILOG_RETURN_NOT_OK(dec_.GetVarint64(&raw));
        if (type == TType::kI64) {
          *out = ThriftValue::I64(ZigZagDecode64(raw));
          return Status::OK();
        }
        const int32_t v = ZigZagDecode32(static_cast<uint32_t>(raw));
        *out = type == TType::kI32 ? ThriftValue::I32(v)
                                   : ThriftValue::I16(static_cast<int16_t>(v));
        return Status::OK();
      }
      case TType::kDouble: {
        uint64_t bits;
        UNILOG_RETURN_NOT_OK(dec_.GetFixed64(&bits));
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        *out = ThriftValue::Double(v);
        return Status::OK();
      }
      case TType::kString: {
        std::string_view v;
        UNILOG_RETURN_NOT_OK(dec_.GetLengthPrefixed(&v));
        *out = ThriftValue::String(std::string(v));
        return Status::OK();
      }
      case TType::kStruct:
        return Struct(depth, out);
      case TType::kList:
      case TType::kSet: {
        uint8_t byte = 0;
        UNILOG_RETURN_NOT_OK(Byte(&byte));
        ListData l;
        l.is_set = type == TType::kSet;
        UNILOG_RETURN_NOT_OK(Type(byte & 0x0F, &l.elem_type));
        uint64_t count = byte >> 4;
        if (count == 15) UNILOG_RETURN_NOT_OK(Count(&count));
        l.elems.reserve(std::min<uint64_t>(count, dec_.remaining()));
        for (uint64_t i = 0; i < count; ++i) {
          ThriftValue e;
          UNILOG_RETURN_NOT_OK(Value(l.elem_type, depth + 1, &e));
          l.elems.push_back(std::move(e));
        }
        *out = ThriftValue::List(std::move(l));
        return Status::OK();
      }
      case TType::kMap: {
        uint64_t count;
        UNILOG_RETURN_NOT_OK(Count(&count));
        MapData m;
        if (count > 0) {
          uint8_t byte = 0;
          UNILOG_RETURN_NOT_OK(Byte(&byte));
          UNILOG_RETURN_NOT_OK(Type(byte >> 4, &m.key_type));
          UNILOG_RETURN_NOT_OK(Type(byte & 0x0F, &m.value_type));
        }
        m.entries.reserve(std::min<uint64_t>(count, dec_.remaining()));
        for (uint64_t i = 0; i < count; ++i) {
          ThriftValue k, v;
          UNILOG_RETURN_NOT_OK(Value(m.key_type, depth + 1, &k));
          UNILOG_RETURN_NOT_OK(Value(m.value_type, depth + 1, &v));
          m.entries.emplace_back(std::move(k), std::move(v));
        }
        *out = ThriftValue::Map(std::move(m));
        return Status::OK();
      }
    }
    return Status::Corruption("oracle: unknown type");
  }

 private:
  Status Byte(uint8_t* b) {
    std::string_view v;
    UNILOG_RETURN_NOT_OK(dec_.GetBytes(1, &v));
    *b = static_cast<uint8_t>(v[0]);
    return Status::OK();
  }

  static Status Type(uint8_t nibble, TType* t) {
    if (kTypeOfWire[nibble] == 0) {
      return Status::Corruption("oracle: bad type nibble");
    }
    *t = static_cast<TType>(kTypeOfWire[nibble]);
    return Status::OK();
  }

  Status Count(uint64_t* count) {
    UNILOG_RETURN_NOT_OK(dec_.GetVarint64(count));
    if (*count > UINT32_MAX) return Status::Corruption("oracle: count");
    return Status::OK();
  }

  Decoder dec_;
};

}  // namespace internal

/// Parses one struct that spans all of `data`; Corruption otherwise.
inline Result<ThriftValue> ParseStruct(std::string_view data) {
  internal::Parser p(data);
  ThriftValue out;
  UNILOG_RETURN_NOT_OK(p.Struct(0, &out));
  if (!p.AtEnd()) return Status::Corruption("trailing bytes after struct");
  return out;
}

}  // namespace unilog::thrift_oracle

#endif  // UNILOG_TESTS_THRIFT_ORACLE_H_
