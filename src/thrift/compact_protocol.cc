#include "thrift/compact_protocol.h"

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
  return Status::Corruption("bad compact type nibble");
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

void CompactWriter::WriteI32Field(int16_t id, int32_t v) {
  WriteFieldHeader(id, CType::kI32);
  PutVarint64(out_, ZigZagEncode32(v));
}

void CompactWriter::WriteI64Field(int16_t id, int64_t v) {
  WriteFieldHeader(id, CType::kI64);
  PutVarint64(out_, ZigZagEncode64(v));
}

void CompactWriter::WriteStringField(int16_t id, std::string_view v) {
  WriteFieldHeader(id, CType::kBinary);
  WriteString(v);
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

}  // namespace unilog::thrift
