#include "dataflow/relation.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "dataflow/vector_engine.h"

namespace unilog::dataflow {

double Value::AsNumber() const {
  if (is_int()) return static_cast<double>(int_value());
  if (is_real()) return real_value();
  if (is_bool()) return bool_value() ? 1.0 : 0.0;
  return 0.0;
}

bool Value::operator<(const Value& other) const {
  if (repr_.index() != other.repr_.index()) {
    return repr_.index() < other.repr_.index();
  }
  return repr_ < other.repr_;
}

std::string Value::ToString() const {
  if (is_int()) return std::to_string(int_value());
  if (is_real()) {
    std::ostringstream os;
    os << real_value();
    return os.str();
  }
  if (is_bool()) return bool_value() ? "true" : "false";
  return str_value();
}

Result<Relation> Relation::FromRows(std::vector<std::string> columns,
                                    std::vector<Row> rows) {
  Relation out(std::move(columns));
  for (const Row& row : rows) {
    if (row.size() != out.columns_.size()) {
      return Status::InvalidArgument(
          "row arity " + std::to_string(row.size()) + " != schema arity " +
          std::to_string(out.columns_.size()));
    }
  }
  out.rows_ = std::move(rows);
  return out;
}

Status Relation::AddRow(Row row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " != schema arity " +
        std::to_string(columns_.size()));
  }
  rows_.push_back(std::move(row));
  return Status::OK();
}

Result<size_t> Relation::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  return Status::NotFound("no such column: " + name);
}

Result<Value> Relation::Get(const Row& row, const std::string& column) const {
  UNILOG_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(column));
  if (idx >= row.size()) return Status::OutOfRange("row too short");
  return row[idx];
}

Relation Relation::Filter(const Predicate& predicate) const {
  Relation out(columns_);
  for (const Row& row : rows_) {
    if (predicate(row)) out.rows_.push_back(row);
  }
  return out;
}

Result<Relation> Relation::Project(const std::vector<std::string>& cols) const {
  std::vector<size_t> indices;
  for (const auto& col : cols) {
    UNILOG_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(col));
    indices.push_back(idx);
  }
  Relation out(cols);
  out.rows_.reserve(rows_.size());
  for (const Row& row : rows_) {
    Row& projected = out.rows_.emplace_back();
    projected.reserve(indices.size());
    for (size_t idx : indices) projected.push_back(row[idx]);
  }
  return out;
}

Result<Relation> Relation::GroupBy(const std::vector<std::string>& keys,
                                   const std::vector<Aggregate>& aggs,
                                   exec::Executor* exec) const {
  UNILOG_ASSIGN_OR_RETURN(BatchRelation batch,
                          BatchRelation::FromRelation(*this));
  return batch.GroupBy(keys, aggs, exec);
}

Result<Relation> Relation::Join(const Relation& right,
                                const std::string& left_col,
                                const std::string& right_col,
                                exec::Executor* exec) const {
  UNILOG_ASSIGN_OR_RETURN(BatchRelation left_batch,
                          BatchRelation::FromRelation(*this));
  UNILOG_ASSIGN_OR_RETURN(BatchRelation right_batch,
                          BatchRelation::FromRelation(right));
  UNILOG_ASSIGN_OR_RETURN(
      BatchRelation joined,
      left_batch.Join(right_batch, left_col, right_col, exec));
  return joined.ToRelation();
}

Relation Relation::Distinct() const {
  std::set<Row> seen;
  Relation out(columns_);
  for (const Row& row : rows_) {
    if (seen.insert(row).second) out.rows_.push_back(row);
  }
  return out;
}

Result<Relation> Relation::OrderBy(const std::string& column,
                                   bool descending) const {
  UNILOG_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(column));
  std::vector<size_t> order(rows_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Value& va = rows_[a][idx];
    const Value& vb = rows_[b][idx];
    return descending ? vb < va : va < vb;
  });
  Relation out(columns_);
  out.rows_.reserve(order.size());
  for (size_t i : order) out.rows_.push_back(rows_[i]);
  return out;
}

Relation Relation::Limit(size_t n) const {
  Relation out(columns_);
  for (size_t i = 0; i < rows_.size() && i < n; ++i) {
    out.rows_.push_back(rows_[i]);
  }
  return out;
}

std::string Relation::ToString(size_t max_rows) const {
  std::ostringstream os;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) os << '\t';
    os << columns_[i];
  }
  os << '\n';
  size_t shown = 0;
  for (const auto& row : rows_) {
    if (shown++ >= max_rows) {
      os << "... (" << rows_.size() - max_rows << " more rows)\n";
      break;
    }
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << '\t';
      os << row[i].ToString();
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace unilog::dataflow
