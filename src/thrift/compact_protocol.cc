#include "thrift/compact_protocol.h"

#include <algorithm>
#include <cstring>

namespace unilog::thrift {

CType ToCType(TType t) {
  switch (t) {
    case TType::kBool:
      return CType::kBoolTrue;
    case TType::kByte:
      return CType::kByte;
    case TType::kI16:
      return CType::kI16;
    case TType::kI32:
      return CType::kI32;
    case TType::kI64:
      return CType::kI64;
    case TType::kDouble:
      return CType::kDouble;
    case TType::kString:
      return CType::kBinary;
    case TType::kStruct:
      return CType::kStruct;
    case TType::kList:
      return CType::kList;
    case TType::kSet:
      return CType::kSet;
    case TType::kMap:
      return CType::kMap;
  }
  return CType::kStop;
}

Result<TType> FromCType(uint8_t nibble) {
  switch (static_cast<CType>(nibble)) {
    case CType::kBoolTrue:
    case CType::kBoolFalse:
      return TType::kBool;
    case CType::kByte:
      return TType::kByte;
    case CType::kI16:
      return TType::kI16;
    case CType::kI32:
      return TType::kI32;
    case CType::kI64:
      return TType::kI64;
    case CType::kDouble:
      return TType::kDouble;
    case CType::kBinary:
      return TType::kString;
    case CType::kList:
      return TType::kList;
    case CType::kSet:
      return TType::kSet;
    case CType::kMap:
      return TType::kMap;
    case CType::kStruct:
      return TType::kStruct;
    case CType::kStop:
      break;
  }
  return Status::InvalidArgument("bad compact type nibble");
}

// ---------------------------------------------------------------------------
// CompactWriter

void CompactWriter::BeginStruct() { last_field_.push_back(0); }

void CompactWriter::EndStruct() {
  out_->push_back('\x00');  // STOP
  last_field_.pop_back();
}

void CompactWriter::WriteFieldHeader(int16_t id, CType type) {
  int16_t last = last_field_.empty() ? 0 : last_field_.back();
  int32_t delta = id - last;
  if (delta >= 1 && delta <= 15) {
    out_->push_back(static_cast<char>((delta << 4) |
                                      static_cast<uint8_t>(type)));
  } else {
    out_->push_back(static_cast<char>(type));
    PutVarint64(out_, ZigZagEncode32(id));
  }
  if (!last_field_.empty()) last_field_.back() = id;
}

void CompactWriter::WriteBoolField(int16_t id, bool v) {
  WriteFieldHeader(id, v ? CType::kBoolTrue : CType::kBoolFalse);
}

void CompactWriter::WriteByteField(int16_t id, int8_t v) {
  WriteFieldHeader(id, CType::kByte);
  WriteByte(v);
}

void CompactWriter::WriteI16Field(int16_t id, int16_t v) {
  WriteFieldHeader(id, CType::kI16);
  WriteI16(v);
}

void CompactWriter::WriteI32Field(int16_t id, int32_t v) {
  WriteFieldHeader(id, CType::kI32);
  WriteI32(v);
}

void CompactWriter::WriteI64Field(int16_t id, int64_t v) {
  WriteFieldHeader(id, CType::kI64);
  WriteI64(v);
}

void CompactWriter::WriteDoubleField(int16_t id, double v) {
  WriteFieldHeader(id, CType::kDouble);
  WriteDouble(v);
}

void CompactWriter::WriteStringField(int16_t id, std::string_view v) {
  WriteFieldHeader(id, CType::kBinary);
  WriteString(v);
}

void CompactWriter::WriteStructFieldHeader(int16_t id) {
  WriteFieldHeader(id, CType::kStruct);
}

void CompactWriter::WriteSetFieldHeader(int16_t id, TType elem,
                                        uint32_t count) {
  WriteFieldHeader(id, CType::kSet);
  uint8_t et = static_cast<uint8_t>(ToCType(elem));
  if (count < 15) {
    out_->push_back(static_cast<char>((count << 4) | et));
  } else {
    out_->push_back(static_cast<char>(0xF0 | et));
    PutVarint64(out_, count);
  }
}

void CompactWriter::WriteListFieldHeader(int16_t id, TType elem,
                                         uint32_t count) {
  WriteFieldHeader(id, CType::kList);
  uint8_t et = static_cast<uint8_t>(ToCType(elem));
  if (count < 15) {
    out_->push_back(static_cast<char>((count << 4) | et));
  } else {
    out_->push_back(static_cast<char>(0xF0 | et));
    PutVarint64(out_, count);
  }
}

void CompactWriter::WriteMapFieldHeader(int16_t id, TType key, TType value,
                                        uint32_t count) {
  WriteFieldHeader(id, CType::kMap);
  PutVarint64(out_, count);
  if (count > 0) {
    out_->push_back(static_cast<char>(
        (static_cast<uint8_t>(ToCType(key)) << 4) |
        static_cast<uint8_t>(ToCType(value))));
  }
}

void CompactWriter::WriteBool(bool v) {
  out_->push_back(v ? '\x01' : '\x02');
}

void CompactWriter::WriteByte(int8_t v) {
  out_->push_back(static_cast<char>(v));
}

void CompactWriter::WriteI16(int16_t v) {
  PutVarint64(out_, ZigZagEncode32(v));
}

void CompactWriter::WriteI32(int32_t v) {
  PutVarint64(out_, ZigZagEncode32(v));
}

void CompactWriter::WriteI64(int64_t v) {
  PutVarint64(out_, ZigZagEncode64(v));
}

void CompactWriter::WriteDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(out_, bits);
}

void CompactWriter::WriteString(std::string_view v) {
  PutLengthPrefixed(out_, v);
}

// ---------------------------------------------------------------------------
// CompactReader

Status CompactReader::BeginStruct() {
  if (depth_ >= kMaxNestingDepth) {
    return Status::Corruption("compact: structs nested too deep");
  }
  last_field_[depth_++] = 0;
  return Status::OK();
}

Status CompactReader::ReadFieldHeader(int16_t* id, TType* type, bool* stop,
                                      bool* bool_value) {
  std::string_view b;
  UNILOG_RETURN_NOT_OK(dec_.GetBytes(1, &b));
  uint8_t byte = static_cast<uint8_t>(b[0]);
  if (byte == 0) {
    *stop = true;
    if (depth_ > 0) --depth_;
    return Status::OK();
  }
  *stop = false;
  uint8_t nibble = byte & 0x0F;
  uint8_t delta = byte >> 4;
  int16_t last = depth_ == 0 ? 0 : last_field_[depth_ - 1];
  if (delta != 0) {
    *id = static_cast<int16_t>(last + delta);
  } else {
    uint64_t raw;
    UNILOG_RETURN_NOT_OK(dec_.GetVarint64(&raw));
    *id = static_cast<int16_t>(ZigZagDecode32(static_cast<uint32_t>(raw)));
  }
  if (depth_ > 0) last_field_[depth_ - 1] = *id;
  UNILOG_ASSIGN_OR_RETURN(*type, FromCType(nibble));
  if (*type == TType::kBool) {
    *bool_value = (static_cast<CType>(nibble) == CType::kBoolTrue);
  }
  return Status::OK();
}

Status CompactReader::ReadBool(bool* v) {
  std::string_view b;
  UNILOG_RETURN_NOT_OK(dec_.GetBytes(1, &b));
  uint8_t byte = static_cast<uint8_t>(b[0]);
  if (byte == 1) {
    *v = true;
  } else if (byte == 2 || byte == 0) {
    *v = false;
  } else {
    return Status::Corruption("bad bool element");
  }
  return Status::OK();
}

Status CompactReader::ReadByte(int8_t* v) {
  std::string_view b;
  UNILOG_RETURN_NOT_OK(dec_.GetBytes(1, &b));
  *v = static_cast<int8_t>(b[0]);
  return Status::OK();
}

Status CompactReader::ReadI16(int16_t* v) {
  uint64_t raw;
  UNILOG_RETURN_NOT_OK(dec_.GetVarint64(&raw));
  *v = static_cast<int16_t>(ZigZagDecode32(static_cast<uint32_t>(raw)));
  return Status::OK();
}

Status CompactReader::ReadI32(int32_t* v) {
  uint64_t raw;
  UNILOG_RETURN_NOT_OK(dec_.GetVarint64(&raw));
  *v = ZigZagDecode32(static_cast<uint32_t>(raw));
  return Status::OK();
}

Status CompactReader::ReadI64(int64_t* v) {
  uint64_t raw;
  UNILOG_RETURN_NOT_OK(dec_.GetVarint64(&raw));
  *v = ZigZagDecode64(raw);
  return Status::OK();
}

Status CompactReader::ReadDouble(double* v) {
  uint64_t bits;
  UNILOG_RETURN_NOT_OK(dec_.GetFixed64(&bits));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status CompactReader::ReadString(std::string* v) {
  std::string_view sv;
  UNILOG_RETURN_NOT_OK(dec_.GetLengthPrefixed(&sv));
  v->assign(sv.data(), sv.size());
  return Status::OK();
}

Status CompactReader::ReadString(std::string_view* v) {
  return dec_.GetLengthPrefixed(v);
}

Status CompactReader::ReadListHeader(TType* elem, uint32_t* count) {
  std::string_view b;
  UNILOG_RETURN_NOT_OK(dec_.GetBytes(1, &b));
  uint8_t byte = static_cast<uint8_t>(b[0]);
  UNILOG_ASSIGN_OR_RETURN(*elem, FromCType(byte & 0x0F));
  uint8_t size_nibble = byte >> 4;
  if (size_nibble < 15) {
    *count = size_nibble;
  } else {
    uint64_t raw;
    UNILOG_RETURN_NOT_OK(dec_.GetVarint64(&raw));
    if (raw > UINT32_MAX) return Status::Corruption("list too large");
    *count = static_cast<uint32_t>(raw);
  }
  return Status::OK();
}

Status CompactReader::ReadMapHeader(TType* key, TType* value,
                                    uint32_t* count) {
  uint64_t raw;
  UNILOG_RETURN_NOT_OK(dec_.GetVarint64(&raw));
  if (raw > UINT32_MAX) return Status::Corruption("map too large");
  *count = static_cast<uint32_t>(raw);
  if (*count == 0) {
    *key = TType::kString;
    *value = TType::kString;
    return Status::OK();
  }
  std::string_view b;
  UNILOG_RETURN_NOT_OK(dec_.GetBytes(1, &b));
  uint8_t byte = static_cast<uint8_t>(b[0]);
  UNILOG_ASSIGN_OR_RETURN(*key, FromCType(byte >> 4));
  UNILOG_ASSIGN_OR_RETURN(*value, FromCType(byte & 0x0F));
  return Status::OK();
}

Status CompactReader::SkipValue(TType type, bool from_field_header) {
  return SkipValueAt(type, from_field_header, 0);
}

Status CompactReader::SkipValueAt(TType type, bool from_field_header,
                                  int depth) {
  if (depth >= kMaxNestingDepth) {
    return Status::Corruption("compact: values nested too deep");
  }
  switch (type) {
    case TType::kBool:
      // Folded into the header when it came from a field; one byte as a
      // bare element.
      if (!from_field_header) return dec_.Skip(1);
      return Status::OK();
    case TType::kByte:
      return dec_.Skip(1);
    case TType::kI16:
    case TType::kI32:
    case TType::kI64: {
      uint64_t raw;
      return dec_.GetVarint64(&raw);
    }
    case TType::kDouble:
      return dec_.Skip(8);
    case TType::kString: {
      std::string_view sv;
      return dec_.GetLengthPrefixed(&sv);
    }
    case TType::kList:
    case TType::kSet: {
      TType elem;
      uint32_t count;
      UNILOG_RETURN_NOT_OK(ReadListHeader(&elem, &count));
      for (uint32_t i = 0; i < count; ++i) {
        UNILOG_RETURN_NOT_OK(SkipValueAt(elem, false, depth + 1));
      }
      return Status::OK();
    }
    case TType::kMap: {
      TType key, value;
      uint32_t count;
      UNILOG_RETURN_NOT_OK(ReadMapHeader(&key, &value, &count));
      for (uint32_t i = 0; i < count; ++i) {
        UNILOG_RETURN_NOT_OK(SkipValueAt(key, false, depth + 1));
        UNILOG_RETURN_NOT_OK(SkipValueAt(value, false, depth + 1));
      }
      return Status::OK();
    }
    case TType::kStruct: {
      UNILOG_RETURN_NOT_OK(BeginStruct());
      while (true) {
        int16_t id;
        TType ftype;
        bool stop = false;
        bool bool_value = false;
        UNILOG_RETURN_NOT_OK(ReadFieldHeader(&id, &ftype, &stop, &bool_value));
        if (stop) return Status::OK();
        UNILOG_RETURN_NOT_OK(SkipValueAt(ftype, true, depth + 1));
      }
    }
  }
  return Status::Corruption("skip: unknown type");
}

// ---------------------------------------------------------------------------
// Dynamic-value serialization

namespace {

void WriteBareValue(CompactWriter* w, const ThriftValue& v);

void WriteStructBody(CompactWriter* w, const StructData& s) {
  w->BeginStruct();
  for (const auto& [id, field] : s.fields) {
    switch (field.type()) {
      case TType::kBool:
        w->WriteBoolField(id, field.bool_value());
        break;
      case TType::kByte:
        w->WriteByteField(id, field.byte_value());
        break;
      case TType::kI16:
        w->WriteI16Field(id, field.i16_value());
        break;
      case TType::kI32:
        w->WriteI32Field(id, field.i32_value());
        break;
      case TType::kI64:
        w->WriteI64Field(id, field.i64_value());
        break;
      case TType::kDouble:
        w->WriteDoubleField(id, field.double_value());
        break;
      case TType::kString:
        w->WriteStringField(id, field.string_value());
        break;
      case TType::kStruct:
        w->WriteStructFieldHeader(id);
        WriteStructBody(w, field.struct_value());
        break;
      case TType::kList:
      case TType::kSet: {
        const auto& l = field.list_value();
        if (l.is_set) {
          w->WriteSetFieldHeader(id, l.elem_type,
                                 static_cast<uint32_t>(l.elems.size()));
        } else {
          w->WriteListFieldHeader(id, l.elem_type,
                                  static_cast<uint32_t>(l.elems.size()));
        }
        for (const auto& e : l.elems) WriteBareValue(w, e);
        break;
      }
      case TType::kMap: {
        const auto& m = field.map_value();
        w->WriteMapFieldHeader(id, m.key_type, m.value_type,
                               static_cast<uint32_t>(m.entries.size()));
        for (const auto& [k, val] : m.entries) {
          WriteBareValue(w, k);
          WriteBareValue(w, val);
        }
        break;
      }
    }
  }
  w->EndStruct();
}

void WriteBareValue(CompactWriter* w, const ThriftValue& v) {
  switch (v.type()) {
    case TType::kBool:
      w->WriteBool(v.bool_value());
      break;
    case TType::kByte:
      w->WriteByte(v.byte_value());
      break;
    case TType::kI16:
      w->WriteI16(v.i16_value());
      break;
    case TType::kI32:
      w->WriteI32(v.i32_value());
      break;
    case TType::kI64:
      w->WriteI64(v.i64_value());
      break;
    case TType::kDouble:
      w->WriteDouble(v.double_value());
      break;
    case TType::kString:
      w->WriteString(v.string_value());
      break;
    case TType::kStruct:
      WriteStructBody(w, v.struct_value());
      break;
    case TType::kList:
    case TType::kSet: {
      // Bare list element header (same encoding as a field list header
      // minus the field header itself). Reuse writer internals via a local
      // encoding.
      const auto& l = v.list_value();
      std::string* out = w->out();
      uint8_t et = static_cast<uint8_t>(ToCType(l.elem_type));
      if (l.elems.size() < 15) {
        out->push_back(static_cast<char>((l.elems.size() << 4) | et));
      } else {
        out->push_back(static_cast<char>(0xF0 | et));
        PutVarint64(out, l.elems.size());
      }
      for (const auto& e : l.elems) WriteBareValue(w, e);
      break;
    }
    case TType::kMap: {
      const auto& m = v.map_value();
      std::string* out = w->out();
      PutVarint64(out, m.entries.size());
      if (!m.entries.empty()) {
        out->push_back(static_cast<char>(
            (static_cast<uint8_t>(ToCType(m.key_type)) << 4) |
            static_cast<uint8_t>(ToCType(m.value_type))));
      }
      for (const auto& [k, val] : m.entries) {
        WriteBareValue(w, k);
        WriteBareValue(w, val);
      }
      break;
    }
  }
}

// Every dynamic read descends through these two; `depth` counts the
// containers and structs above the value, bounded like SkipValue.
Status ReadBareValue(CompactReader* r, TType type, bool header_bool,
                     bool from_field_header, int depth, ThriftValue* out);

Status ReadStructBody(CompactReader* r, int depth, ThriftValue* out) {
  *out = ThriftValue::Struct();
  UNILOG_RETURN_NOT_OK(r->BeginStruct());
  while (true) {
    int16_t id;
    TType ftype;
    bool stop = false;
    bool bool_value = false;
    UNILOG_RETURN_NOT_OK(r->ReadFieldHeader(&id, &ftype, &stop, &bool_value));
    if (stop) return Status::OK();
    ThriftValue field;
    UNILOG_RETURN_NOT_OK(ReadBareValue(r, ftype, bool_value,
                                       /*from_field_header=*/true, depth + 1,
                                       &field));
    out->SetField(id, std::move(field));
  }
}

Status ReadBareValue(CompactReader* r, TType type, bool header_bool,
                     bool from_field_header, int depth, ThriftValue* out) {
  if (depth >= CompactReader::kMaxNestingDepth) {
    return Status::Corruption("compact: values nested too deep");
  }
  switch (type) {
    case TType::kBool: {
      if (from_field_header) {
        *out = ThriftValue::Bool(header_bool);
      } else {
        bool v;
        UNILOG_RETURN_NOT_OK(r->ReadBool(&v));
        *out = ThriftValue::Bool(v);
      }
      return Status::OK();
    }
    case TType::kByte: {
      int8_t v;
      UNILOG_RETURN_NOT_OK(r->ReadByte(&v));
      *out = ThriftValue::Byte(v);
      return Status::OK();
    }
    case TType::kI16: {
      int16_t v;
      UNILOG_RETURN_NOT_OK(r->ReadI16(&v));
      *out = ThriftValue::I16(v);
      return Status::OK();
    }
    case TType::kI32: {
      int32_t v;
      UNILOG_RETURN_NOT_OK(r->ReadI32(&v));
      *out = ThriftValue::I32(v);
      return Status::OK();
    }
    case TType::kI64: {
      int64_t v;
      UNILOG_RETURN_NOT_OK(r->ReadI64(&v));
      *out = ThriftValue::I64(v);
      return Status::OK();
    }
    case TType::kDouble: {
      double v;
      UNILOG_RETURN_NOT_OK(r->ReadDouble(&v));
      *out = ThriftValue::Double(v);
      return Status::OK();
    }
    case TType::kString: {
      std::string v;
      UNILOG_RETURN_NOT_OK(r->ReadString(&v));
      *out = ThriftValue::String(std::move(v));
      return Status::OK();
    }
    case TType::kStruct:
      return ReadStructBody(r, depth, out);
    case TType::kList:
    case TType::kSet: {
      TType elem;
      uint32_t count;
      UNILOG_RETURN_NOT_OK(r->ReadListHeader(&elem, &count));
      ListData l;
      l.elem_type = elem;
      l.is_set = (type == TType::kSet);
      // Every element spends at least one byte, so the bytes left bound
      // what a claimed count may reserve.
      l.elems.reserve(std::min<size_t>(count, r->decoder()->remaining()));
      for (uint32_t i = 0; i < count; ++i) {
        ThriftValue e;
        UNILOG_RETURN_NOT_OK(ReadBareValue(
            r, elem, false, /*from_field_header=*/false, depth + 1, &e));
        l.elems.push_back(std::move(e));
      }
      *out = ThriftValue::List(std::move(l));
      return Status::OK();
    }
    case TType::kMap: {
      TType key, value;
      uint32_t count;
      UNILOG_RETURN_NOT_OK(r->ReadMapHeader(&key, &value, &count));
      MapData m;
      m.key_type = key;
      m.value_type = value;
      m.entries.reserve(std::min<size_t>(count, r->decoder()->remaining()));
      for (uint32_t i = 0; i < count; ++i) {
        ThriftValue k, v;
        UNILOG_RETURN_NOT_OK(ReadBareValue(
            r, key, false, /*from_field_header=*/false, depth + 1, &k));
        UNILOG_RETURN_NOT_OK(ReadBareValue(
            r, value, false, /*from_field_header=*/false, depth + 1, &v));
        m.entries.emplace_back(std::move(k), std::move(v));
      }
      *out = ThriftValue::Map(std::move(m));
      return Status::OK();
    }
  }
  return Status::Corruption("read: unknown type");
}

}  // namespace

Status SerializeStruct(const ThriftValue& value, std::string* out) {
  if (!value.is_struct()) {
    return Status::InvalidArgument("SerializeStruct: value is not a struct");
  }
  CompactWriter w(out);
  WriteStructBody(&w, value.struct_value());
  return Status::OK();
}

Result<ThriftValue> ParseStruct(std::string_view data) {
  CompactReader r(data);
  ThriftValue out;
  UNILOG_RETURN_NOT_OK(ReadStructBody(&r, 0, &out));
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after struct");
  }
  return out;
}

}  // namespace unilog::thrift
