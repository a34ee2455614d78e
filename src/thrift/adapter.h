#ifndef UNILOG_THRIFT_ADAPTER_H_
#define UNILOG_THRIFT_ADAPTER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

#include "common/result.h"
#include "common/status.h"
#include "thrift/compact_protocol.h"
#include "thrift/schema.h"

namespace unilog::thrift {

/// Elephant Bird's role, in template form: given a declarative field list
/// for a plain struct, these adapters generate the compact-protocol
/// writer, the unknown-field-skipping reader, and the StructSchema — "it
/// is straightforward to use the serialization framework to specify the
/// data schema, from which the serialization compiler generates code to
/// read, write, and manipulate the data" (§3).
///
/// Usage:
///   struct SearchEvent {
///     int64_t user_id = 0;
///     std::string query;
///     bool personalized = false;
///   };
///   template <>
///   struct ThriftTraits<SearchEvent> {
///     static constexpr const char* kName = "search_event";
///     static constexpr auto fields() {
///       return std::make_tuple(
///           Field(1, "user_id", &SearchEvent::user_id),
///           Field(2, "query", &SearchEvent::query),
///           Field(3, "personalized", &SearchEvent::personalized,
///                 /*required=*/false));
///     }
///   };
///   std::string wire = SerializeTyped(event);
///   Result<SearchEvent> back = DeserializeTyped<SearchEvent>(wire);

/// Per-struct trait to specialize; see the header comment.
template <typename T>
struct ThriftTraits;

/// Descriptor of one field: the id, name, member pointer, and whether the
/// reader requires it to be present.
template <typename T, typename FieldT>
struct FieldDesc {
  int16_t id;
  const char* name;
  FieldT T::* member;
  bool required;
};

template <typename T, typename FieldT>
constexpr FieldDesc<T, FieldT> Field(int16_t id, const char* name,
                                     FieldT T::* member,
                                     bool required = true) {
  return FieldDesc<T, FieldT>{id, name, member, required};
}

namespace adapter_internal {

// --- wire type of a C++ field type ---
inline constexpr TType WireTypeOf(const bool*) { return TType::kBool; }
inline constexpr TType WireTypeOf(const int8_t*) { return TType::kByte; }
inline constexpr TType WireTypeOf(const int16_t*) { return TType::kI16; }
inline constexpr TType WireTypeOf(const int32_t*) { return TType::kI32; }
inline constexpr TType WireTypeOf(const int64_t*) { return TType::kI64; }
inline constexpr TType WireTypeOf(const double*) { return TType::kDouble; }
inline constexpr TType WireTypeOf(const std::string*) {
  return TType::kString;
}

// --- field writers ---
inline void WriteOne(CompactWriter& w, int16_t id, bool v) {
  w.WriteBoolField(id, v);
}
inline void WriteOne(CompactWriter& w, int16_t id, int8_t v) {
  w.WriteByteField(id, v);
}
inline void WriteOne(CompactWriter& w, int16_t id, int16_t v) {
  w.WriteI16Field(id, v);
}
inline void WriteOne(CompactWriter& w, int16_t id, int32_t v) {
  w.WriteI32Field(id, v);
}
inline void WriteOne(CompactWriter& w, int16_t id, int64_t v) {
  w.WriteI64Field(id, v);
}
inline void WriteOne(CompactWriter& w, int16_t id, double v) {
  w.WriteDoubleField(id, v);
}
inline void WriteOne(CompactWriter& w, int16_t id, const std::string& v) {
  w.WriteStringField(id, v);
}

// --- field readers (header_bool carries bools folded into the header) ---
inline Status ReadOne(CompactReader& /*r*/, bool header_bool, bool* out) {
  *out = header_bool;
  return Status::OK();
}
inline Status ReadOne(CompactReader& r, bool, int8_t* out) {
  return r.ReadByte(out);
}
inline Status ReadOne(CompactReader& r, bool, int16_t* out) {
  return r.ReadI16(out);
}
inline Status ReadOne(CompactReader& r, bool, int32_t* out) {
  return r.ReadI32(out);
}
inline Status ReadOne(CompactReader& r, bool, int64_t* out) {
  return r.ReadI64(out);
}
inline Status ReadOne(CompactReader& r, bool, double* out) {
  return r.ReadDouble(out);
}
inline Status ReadOne(CompactReader& r, bool, std::string* out) {
  return r.ReadString(out);
}

}  // namespace adapter_internal

/// Serializes a traited struct with the compact protocol. Fields are
/// written in the declared order (ids should ascend for best delta
/// encoding).
template <typename T>
void SerializeTypedTo(const T& value, std::string* out) {
  CompactWriter w(out);
  w.BeginStruct();
  std::apply(
      [&](const auto&... field) {
        (adapter_internal::WriteOne(w, field.id, value.*(field.member)), ...);
      },
      ThriftTraits<T>::fields());
  w.EndStruct();
}

template <typename T>
std::string SerializeTyped(const T& value) {
  std::string out;
  SerializeTypedTo(value, &out);
  return out;
}

/// Deserializes a traited struct, skipping unknown fields; fails on
/// missing required fields or wire-type mismatches.
template <typename T>
Result<T> DeserializeTyped(std::string_view data) {
  T out{};
  CompactReader r(data);
  UNILOG_RETURN_NOT_OK(r.BeginStruct());
  constexpr size_t kFieldCount =
      std::tuple_size_v<decltype(ThriftTraits<T>::fields())>;
  bool seen[kFieldCount] = {};
  while (true) {
    int16_t id;
    TType type;
    bool stop = false, header_bool = false;
    UNILOG_RETURN_NOT_OK(r.ReadFieldHeader(&id, &type, &stop, &header_bool));
    if (stop) break;

    bool handled = false;
    Status field_status;
    size_t index = 0;
    std::apply(
        [&](const auto&... field) {
          (
              [&] {
                size_t my_index = index++;
                if (handled || field.id != id) return;
                using FieldT = std::remove_reference_t<
                    decltype(out.*(field.member))>;
                constexpr TType kWire = adapter_internal::WireTypeOf(
                    static_cast<const FieldT*>(nullptr));
                if (type != kWire) {
                  field_status = Status::Corruption(
                      std::string("field '") + field.name +
                      "' has wrong wire type");
                  handled = true;
                  return;
                }
                field_status = adapter_internal::ReadOne(
                    r, header_bool, &(out.*(field.member)));
                seen[my_index] = true;
                handled = true;
              }(),
              ...);
        },
        ThriftTraits<T>::fields());
    if (!handled) {
      UNILOG_RETURN_NOT_OK(r.SkipValue(type, /*from_field_header=*/true));
    } else {
      UNILOG_RETURN_NOT_OK(field_status);
    }
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes");

  // Required-field check.
  Status missing;
  size_t index = 0;
  std::apply(
      [&](const auto&... field) {
        (
            [&] {
              size_t my_index = index++;
              if (missing.ok() && field.required && !seen[my_index]) {
                missing = Status::InvalidArgument(
                    std::string("missing required field '") + field.name +
                    "'");
              }
            }(),
            ...);
      },
      ThriftTraits<T>::fields());
  UNILOG_RETURN_NOT_OK(missing);
  return out;
}

/// Builds the StructSchema for a traited struct.
template <typename T>
StructSchema SchemaOfTyped() {
  StructSchema schema(ThriftTraits<T>::kName);
  std::apply(
      [&](const auto&... field) {
        (
            [&] {
              using FieldT = std::remove_reference_t<decltype(
                  std::declval<T>().*(field.member))>;
              FieldSchema fs;
              fs.id = field.id;
              fs.name = field.name;
              fs.type = adapter_internal::WireTypeOf(
                  static_cast<const FieldT*>(nullptr));
              fs.required = field.required;
              (void)schema.AddField(fs);
            }(),
            ...);
      },
      ThriftTraits<T>::fields());
  return schema;
}

}  // namespace unilog::thrift

#endif  // UNILOG_THRIFT_ADAPTER_H_
