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

Relation Relation::Filter(const Predicate& predicate,
                          exec::Executor* exec) const {
  exec = exec::OrInline(exec);
  std::vector<std::vector<Row>> kept(exec->ChunksFor(rows_.size()));
  exec->ParallelForChunked(
      "filter", rows_.size(), [&](size_t chunk, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (predicate(rows_[i])) kept[chunk].push_back(rows_[i]);
        }
      });
  Relation out(columns_);
  out.rows_ = exec::ConcatChunks(&kept);
  return out;
}

Result<Relation> Relation::Project(const std::vector<std::string>& cols,
                                   exec::Executor* exec) const {
  std::vector<size_t> indices;
  for (const auto& col : cols) {
    UNILOG_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(col));
    indices.push_back(idx);
  }
  Relation out(cols);
  out.rows_.resize(rows_.size());
  exec::OrInline(exec)->ParallelForChunked(
      "project", rows_.size(), [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          Row& projected = out.rows_[i];
          projected.reserve(indices.size());
          for (size_t idx : indices) projected.push_back(rows_[i][idx]);
        }
      });
  return out;
}

Result<Relation> Relation::WithColumn(const std::string& name,
                                      std::function<Value(const Row&)> fn,
                                      exec::Executor* exec) const {
  if (ColumnIndex(name).ok()) {
    return Status::AlreadyExists("column exists: " + name);
  }
  std::vector<std::string> cols = columns_;
  cols.push_back(name);
  Relation out(cols);
  out.rows_.resize(rows_.size());
  exec::OrInline(exec)->ParallelForChunked(
      "with_column", rows_.size(), [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          Row extended = rows_[i];
          extended.push_back(fn(rows_[i]));
          out.rows_[i] = std::move(extended);
        }
      });
  return out;
}

namespace {

/// Hash of a row, used only to assign rows to Distinct's shards —
/// survivors merge by first-occurrence index, so the shard assignment
/// never shows up in the output. Rows equal under the Value order must
/// hash alike, so -0.0 hashes as 0.0 (as group keys encode it).
size_t HashKey(const Row& row) {
  size_t h = 0;
  for (const Value& v : row) {
    size_t hv = 0;
    if (v.is_int()) {
      hv = std::hash<int64_t>{}(v.int_value());
    } else if (v.is_real()) {
      const double d = v.real_value();
      hv = std::hash<double>{}(d == 0.0 ? 0.0 : d);
    } else if (v.is_str()) {
      hv = std::hash<std::string>{}(v.str_value());
    } else {
      hv = v.bool_value();
    }
    h = h * 1099511628211ull + hv;
  }
  return h;
}

}  // namespace

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

Relation Relation::Distinct(exec::Executor* exec) const {
  // Hash-partition rows so every distinct row is owned by exactly one
  // shard; each shard records the index of the row's first occurrence.
  // Emitting survivors by ascending first index keeps first-occurrence
  // order, whatever the shard count. One shard dedups without hashing.
  exec = exec::OrInline(exec);
  const size_t num_shards = exec->Shards();
  std::vector<uint32_t> shard_of;
  if (num_shards > 1) {
    shard_of.resize(rows_.size());
    exec->ParallelForChunked(
        "distinct-hash", rows_.size(), [&](size_t, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            shard_of[i] = static_cast<uint32_t>(HashKey(rows_[i]) % num_shards);
          }
        });
  }
  std::vector<std::vector<size_t>> firsts(num_shards);
  exec->ParallelFor("distinct-dedup", num_shards, [&](size_t s) {
    std::set<Row> seen;
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (num_shards > 1 && shard_of[i] != s) continue;
      if (seen.insert(rows_[i]).second) firsts[s].push_back(i);
    }
  });
  std::vector<size_t> order = exec::ConcatChunks(&firsts);
  if (num_shards > 1) std::sort(order.begin(), order.end());
  Relation out(columns_);
  out.rows_.reserve(order.size());
  for (size_t i : order) out.rows_.push_back(rows_[i]);
  return out;
}

Result<Relation> Relation::OrderBy(const std::string& column, bool descending,
                                   exec::Executor* exec) const {
  UNILOG_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(column));
  // Sort per-chunk index ranges under the (sort key, original index)
  // total order — the exact order stable_sort produces — then k-way merge
  // the chunks. Identical output at any thread count.
  exec = exec::OrInline(exec);
  auto less = [this, idx, descending](size_t a, size_t b) {
    const Value& va = rows_[a][idx];
    const Value& vb = rows_[b][idx];
    if (descending) {
      if (vb < va) return true;
      if (va < vb) return false;
    } else {
      if (va < vb) return true;
      if (vb < va) return false;
    }
    return a < b;
  };
  const size_t n = rows_.size();
  std::vector<std::vector<size_t>> chunks(exec->ChunksFor(n));
  exec->ParallelForChunked(
      "orderby-sort", n, [&](size_t c, size_t begin, size_t end) {
        std::vector<size_t>& v = chunks[c];
        v.resize(end - begin);
        for (size_t i = begin; i < end; ++i) v[i - begin] = i;
        std::sort(v.begin(), v.end(), less);
      });
  Relation out(columns_);
  out.rows_.reserve(n);
  std::vector<size_t> heads(chunks.size(), 0);
  for (size_t emitted = 0; emitted < n; ++emitted) {
    size_t best = chunks.size();
    for (size_t c = 0; c < chunks.size(); ++c) {
      if (heads[c] >= chunks[c].size()) continue;
      if (best == chunks.size() ||
          less(chunks[c][heads[c]], chunks[best][heads[best]])) {
        best = c;
      }
    }
    out.rows_.push_back(rows_[chunks[best][heads[best]]]);
    ++heads[best];
  }
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
