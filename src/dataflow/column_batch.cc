#include "dataflow/column_batch.h"

#include <map>

namespace unilog::dataflow {

size_t ColumnData::size() const {
  switch (kind) {
    case ColumnKind::kInt64:
      return i64.size();
    case ColumnKind::kDouble:
      return f64.size();
    case ColumnKind::kBool:
      return b1.size();
    case ColumnKind::kString:
      return str.size();
    case ColumnKind::kDict:
      return codes.size();
    case ColumnKind::kValue:
      return vals.size();
  }
  return 0;
}

uint64_t ColumnData::byte_size() const {
  uint64_t bytes = i64.size() * sizeof(int64_t) + f64.size() * sizeof(double) +
                   b1.size() + codes.size() * sizeof(uint32_t) +
                   vals.size() * sizeof(Value);
  for (const std::string& s : str) bytes += sizeof(std::string) + s.size();
  if (dict != nullptr) {
    for (const std::string& s : *dict) bytes += sizeof(std::string) + s.size();
  }
  return bytes;
}

Value ColumnData::ValueAt(size_t row) const {
  switch (kind) {
    case ColumnKind::kInt64:
      return Value::Int(i64[row]);
    case ColumnKind::kDouble:
      return Value::Real(f64[row]);
    case ColumnKind::kBool:
      return Value::Bool(b1[row] != 0);
    case ColumnKind::kString:
      return Value::Str(str[row]);
    case ColumnKind::kDict:
      return Value::Str((*dict)[codes[row]]);
    case ColumnKind::kValue:
      return vals[row];
  }
  return Value();
}

uint64_t ColumnBatch::byte_size() const {
  uint64_t bytes = sel_.size() * sizeof(uint32_t);
  for (const ColumnPtr& col : cols_) {
    if (col != nullptr) bytes += col->byte_size();
  }
  return bytes;
}

ColumnPtr ColumnBatch::BuildColumn(const std::vector<Value>& vals) {
  auto col = std::make_shared<ColumnData>();
  bool all_int = true, all_real = true, all_bool = true, all_str = true;
  for (const Value& v : vals) {
    all_int = all_int && v.is_int();
    all_real = all_real && v.is_real();
    all_bool = all_bool && v.is_bool();
    all_str = all_str && v.is_str();
  }
  if (vals.empty() || all_int) {
    col->kind = ColumnKind::kInt64;
    col->i64.reserve(vals.size());
    for (const Value& v : vals) col->i64.push_back(v.int_value());
    return col;
  }
  if (all_real) {
    col->kind = ColumnKind::kDouble;
    col->f64.reserve(vals.size());
    for (const Value& v : vals) col->f64.push_back(v.real_value());
    return col;
  }
  if (all_bool) {
    col->kind = ColumnKind::kBool;
    col->b1.reserve(vals.size());
    for (const Value& v : vals) col->b1.push_back(v.bool_value() ? 1 : 0);
    return col;
  }
  if (all_str) {
    // First-appearance dictionary, overflowing to plain strings when the
    // cardinality stops paying for the indirection.
    std::map<std::string, uint32_t> index;
    auto entries = std::make_shared<std::vector<std::string>>();
    std::vector<uint32_t> codes;
    codes.reserve(vals.size());
    bool overflow = false;
    for (const Value& v : vals) {
      auto [it, inserted] =
          index.try_emplace(v.str_value(), static_cast<uint32_t>(entries->size()));
      if (inserted) {
        if (entries->size() >= kMaxDictEntries) {
          overflow = true;
          break;
        }
        entries->push_back(v.str_value());
      }
      codes.push_back(it->second);
    }
    if (!overflow) {
      col->kind = ColumnKind::kDict;
      col->codes = std::move(codes);
      col->dict = std::move(entries);
      return col;
    }
    col->kind = ColumnKind::kString;
    col->str.reserve(vals.size());
    for (const Value& v : vals) col->str.push_back(v.str_value());
    return col;
  }
  col->kind = ColumnKind::kValue;
  col->vals = vals;
  return col;
}

}  // namespace unilog::dataflow
