#include "thrift/value.h"

#include <sstream>

namespace unilog::thrift {

const char* TTypeName(TType t) {
  switch (t) {
    case TType::kBool:
      return "bool";
    case TType::kByte:
      return "byte";
    case TType::kI16:
      return "i16";
    case TType::kI32:
      return "i32";
    case TType::kI64:
      return "i64";
    case TType::kDouble:
      return "double";
    case TType::kString:
      return "string";
    case TType::kStruct:
      return "struct";
    case TType::kList:
      return "list";
    case TType::kSet:
      return "set";
    case TType::kMap:
      return "map";
  }
  return "unknown";
}

TType ThriftValue::type() const {
  struct Visitor {
    TType operator()(bool) const { return TType::kBool; }
    TType operator()(int8_t) const { return TType::kByte; }
    TType operator()(int16_t) const { return TType::kI16; }
    TType operator()(int32_t) const { return TType::kI32; }
    TType operator()(int64_t) const { return TType::kI64; }
    TType operator()(double) const { return TType::kDouble; }
    TType operator()(const std::string&) const { return TType::kString; }
    TType operator()(const StructData&) const { return TType::kStruct; }
    TType operator()(const ListData& l) const {
      return l.is_set ? TType::kSet : TType::kList;
    }
    TType operator()(const MapData&) const { return TType::kMap; }
  };
  return std::visit(Visitor{}, repr_);
}

Result<int64_t> ThriftValue::AsI64() const {
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

const ThriftValue* ThriftValue::FindField(int16_t id) const {
  if (!is_struct()) return nullptr;
  const auto& fields = struct_value().fields;
  auto it = fields.find(id);
  return it == fields.end() ? nullptr : &it->second;
}

void ThriftValue::SetField(int16_t id, ThriftValue v) {
  mutable_struct().fields.insert_or_assign(id, std::move(v));
}

bool ThriftValue::Equals(const ThriftValue& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case TType::kBool:
      return bool_value() == other.bool_value();
    case TType::kByte:
      return byte_value() == other.byte_value();
    case TType::kI16:
      return i16_value() == other.i16_value();
    case TType::kI32:
      return i32_value() == other.i32_value();
    case TType::kI64:
      return i64_value() == other.i64_value();
    case TType::kDouble:
      return double_value() == other.double_value();
    case TType::kString:
      return string_value() == other.string_value();
    case TType::kStruct: {
      const auto& a = struct_value().fields;
      const auto& b = other.struct_value().fields;
      if (a.size() != b.size()) return false;
      auto ia = a.begin();
      auto ib = b.begin();
      for (; ia != a.end(); ++ia, ++ib) {
        if (ia->first != ib->first || !ia->second.Equals(ib->second)) {
          return false;
        }
      }
      return true;
    }
    case TType::kList:
    case TType::kSet: {
      const auto& a = list_value();
      const auto& b = other.list_value();
      if (a.elem_type != b.elem_type || a.elems.size() != b.elems.size()) {
        return false;
      }
      for (size_t i = 0; i < a.elems.size(); ++i) {
        if (!a.elems[i].Equals(b.elems[i])) return false;
      }
      return true;
    }
    case TType::kMap: {
      const auto& a = map_value();
      const auto& b = other.map_value();
      if (a.entries.size() != b.entries.size()) return false;
      // The compact wire format carries no key/value types for an empty
      // map, so declared types of empty maps are not comparable.
      if (!a.entries.empty() &&
          (a.key_type != b.key_type || a.value_type != b.value_type)) {
        return false;
      }
      for (size_t i = 0; i < a.entries.size(); ++i) {
        if (!a.entries[i].first.Equals(b.entries[i].first) ||
            !a.entries[i].second.Equals(b.entries[i].second)) {
          return false;
        }
      }
      return true;
    }
  }
  return false;
}

std::string ThriftValue::ToString() const {
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
      bool first = true;
      for (const auto& [id, v] : struct_value().fields) {
        if (!first) os << ", ";
        first = false;
        os << id << ": " << v.ToString();
      }
      os << '}';
      break;
    }
    case TType::kList:
    case TType::kSet: {
      os << (type() == TType::kSet ? "#[" : "[");
      const auto& l = list_value();
      for (size_t i = 0; i < l.elems.size(); ++i) {
        if (i > 0) os << ", ";
        os << l.elems[i].ToString();
      }
      os << ']';
      break;
    }
    case TType::kMap: {
      os << '<';
      const auto& m = map_value();
      for (size_t i = 0; i < m.entries.size(); ++i) {
        if (i > 0) os << ", ";
        os << m.entries[i].first.ToString() << ": "
           << m.entries[i].second.ToString();
      }
      os << '>';
      break;
    }
  }
  return os.str();
}

}  // namespace unilog::thrift
