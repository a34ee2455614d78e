#include "dataflow/relation.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

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

struct AggState {
  uint64_t count = 0;
  double sum = 0;
  bool has_minmax = false;
  Value min, max;
  std::set<std::string> distinct;
};

Status Accumulate(const std::vector<Aggregate>& aggs,
                  const std::vector<size_t>& agg_idx, const Row& row,
                  std::vector<AggState>* states) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    AggState& st = (*states)[i];
    switch (aggs[i].op) {
      case Aggregate::Op::kCount:
        ++st.count;
        break;
      case Aggregate::Op::kSum: {
        // §3.1 "error, not garbage": AsNumber() would quietly turn a
        // string or bool into 0 and corrupt the sum.
        const Value& v = row[agg_idx[i]];
        if (v.is_int()) {
          st.sum += static_cast<double>(v.int_value());
        } else if (v.is_real()) {
          st.sum += v.real_value();
        } else {
          return Status::InvalidArgument(
              "SUM over non-numeric value in column '" + aggs[i].column +
              "'");
        }
        break;
      }
      case Aggregate::Op::kMin:
      case Aggregate::Op::kMax: {
        const Value& v = row[agg_idx[i]];
        if (!st.has_minmax) {
          st.min = st.max = v;
          st.has_minmax = true;
        } else {
          if (v < st.min) st.min = v;
          if (st.max < v) st.max = v;
        }
        break;
      }
      case Aggregate::Op::kCountDistinct:
        st.distinct.insert(row[agg_idx[i]].ToString());
        break;
    }
  }
  return Status::OK();
}

Row FinalizeGroup(const std::vector<Aggregate>& aggs, const Row& key,
                  const std::vector<AggState>& states) {
  Row row = key;
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggState& st = states[i];
    switch (aggs[i].op) {
      case Aggregate::Op::kCount:
        row.push_back(Value::Int(static_cast<int64_t>(st.count)));
        break;
      case Aggregate::Op::kSum:
        row.push_back(Value::Real(st.sum));
        break;
      case Aggregate::Op::kMin:
        row.push_back(st.min);
        break;
      case Aggregate::Op::kMax:
        row.push_back(st.max);
        break;
      case Aggregate::Op::kCountDistinct:
        row.push_back(Value::Int(static_cast<int64_t>(st.distinct.size())));
        break;
    }
  }
  return row;
}

/// Position-independent hash of a group key, used only to assign groups to
/// shards — the merge is by key order, so the shard assignment never shows
/// up in the output.
size_t HashKey(const Row& key) {
  std::hash<std::string> hasher;
  size_t h = 0;
  for (const Value& v : key) {
    h = h * 1099511628211ull + hasher(v.ToString()) + v.is_str();
  }
  return h;
}

}  // namespace

Result<Relation> Relation::GroupBy(const std::vector<std::string>& keys,
                                   const std::vector<Aggregate>& aggs,
                                   exec::Executor* exec) const {
  std::vector<size_t> key_idx;
  for (const auto& k : keys) {
    UNILOG_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(k));
    key_idx.push_back(idx);
  }
  std::vector<size_t> agg_idx(aggs.size(), 0);
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].op != Aggregate::Op::kCount) {
      UNILOG_ASSIGN_OR_RETURN(agg_idx[i], ColumnIndex(aggs[i].column));
    }
  }

  std::vector<std::string> out_cols = keys;
  for (const auto& agg : aggs) out_cols.push_back(agg.as);
  Relation out(out_cols);

  // Hash-partition rows by group key so every group is owned by exactly
  // one shard. Each shard scans the rows in original order, so per-group
  // accumulation order — and therefore even floating-point SUM — is the
  // same at any shard count. One shard (inline) accumulates every row
  // into one ordered map without hashing.
  exec = exec::OrInline(exec);
  const size_t num_shards = exec->Shards();
  std::vector<uint32_t> shard_of;
  if (num_shards > 1) {
    shard_of.resize(rows_.size());
    exec->ParallelForChunked(
        "groupby-hash", rows_.size(), [&](size_t, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            Row key;
            key.reserve(key_idx.size());
            for (size_t idx : key_idx) key.push_back(rows_[i][idx]);
            shard_of[i] = static_cast<uint32_t>(HashKey(key) % num_shards);
          }
        });
  }
  std::vector<std::map<Row, std::vector<AggState>>> shards(num_shards);
  UNILOG_RETURN_NOT_OK(
      exec->ParallelForStatus("groupby-agg", num_shards, [&](size_t s) {
        auto& groups = shards[s];
        for (size_t i = 0; i < rows_.size(); ++i) {
          if (num_shards > 1 && shard_of[i] != s) continue;
          const Row& row = rows_[i];
          Row key;
          key.reserve(key_idx.size());
          for (size_t idx : key_idx) key.push_back(row[idx]);
          auto [it, inserted] = groups.try_emplace(std::move(key));
          if (inserted) it->second.resize(aggs.size());
          UNILOG_RETURN_NOT_OK(Accumulate(aggs, agg_idx, row, &it->second));
        }
        return Status::OK();
      }));

  // Merge: every group lives in one shard; emit in global key order (a
  // single shard's map already is).
  using GroupRef = std::pair<const Row*, const std::vector<AggState>*>;
  std::vector<GroupRef> refs;
  for (const auto& shard : shards) {
    for (const auto& [key, states] : shard) refs.emplace_back(&key, &states);
  }
  if (num_shards > 1) {
    std::sort(refs.begin(), refs.end(),
              [](const GroupRef& a, const GroupRef& b) {
                return *a.first < *b.first;
              });
  }
  out.rows_.resize(refs.size());
  exec->ParallelForChunked(
      "groupby-finalize", refs.size(), [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          out.rows_[i] = FinalizeGroup(aggs, *refs[i].first, *refs[i].second);
        }
      });
  return out;
}

Result<Relation> Relation::Join(const Relation& right,
                                const std::string& left_col,
                                const std::string& right_col,
                                exec::Executor* exec) const {
  UNILOG_ASSIGN_OR_RETURN(size_t li, ColumnIndex(left_col));
  UNILOG_ASSIGN_OR_RETURN(size_t ri, right.ColumnIndex(right_col));

  // Build hash table on the right side.
  std::unordered_map<std::string, std::vector<const Row*>> table;
  for (const auto& row : right.rows_) {
    table[row[ri].ToString() + "\x01" +
          std::to_string(row[ri].is_str())].push_back(&row);
  }

  std::vector<std::string> out_cols = columns_;
  for (size_t i = 0; i < right.columns_.size(); ++i) {
    if (i == ri) continue;
    out_cols.push_back(right.columns_[i]);
  }
  Relation out(out_cols);
  auto probe_one = [&](const Row& row, std::vector<Row>* sink) {
    auto it = table.find(row[li].ToString() + "\x01" +
                         std::to_string(row[li].is_str()));
    if (it == table.end()) return;
    for (const Row* rrow : it->second) {
      Row joined = row;
      for (size_t i = 0; i < rrow->size(); ++i) {
        if (i == ri) continue;
        joined.push_back((*rrow)[i]);
      }
      sink->push_back(std::move(joined));
    }
  };
  // Per-chunk probe outputs concatenated in probe-row order.
  exec = exec::OrInline(exec);
  std::vector<std::vector<Row>> chunks(exec->ChunksFor(rows_.size()));
  exec->ParallelForChunked(
      "join-probe", rows_.size(), [&](size_t chunk, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) probe_one(rows_[i], &chunks[chunk]);
      });
  out.rows_ = exec::ConcatChunks(&chunks);
  return out;
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
