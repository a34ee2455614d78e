#ifndef UNILOG_TESTS_RELATION_ORACLE_H_
#define UNILOG_TESTS_RELATION_ORACLE_H_

// Single-threaded reference bodies for the hash-partitioned operators, and
// the row engine's filter clause (EvalFilterOp). GroupBy and Join
// (BatchRelation's kernels, which Relation::GroupBy and Relation::Join
// run) and the MapReduce shuffle each have one body that runs on an
// exec::Executor at every thread count. These are the plain loops those
// bodies replaced — one ordered map, one row-at-a-time hash join, one
// concatenate-then-group shuffle — frozen here (as lz_reference.h freezes
// the old codec) so the property suites check every thread count and
// batch layout against an answer the engine did not compute. Distinct (one
// seen-set) and OrderBy (one stable_sort) are the frozen references of
// Relation's row operators, which run inline.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "dataflow/mapreduce.h"
#include "dataflow/relation.h"
#include "events/event_name.h"

namespace unilog::relation_oracle {

namespace internal {

using dataflow::Aggregate;
using dataflow::Row;
using dataflow::Value;

struct AggState {
  uint64_t count = 0;
  double sum = 0;
  bool has_minmax = false;
  Value min, max;
  // COUNT DISTINCT under the group-key identity: the Value order, where
  // types never compare equal and -0.0 is equivalent to 0.0.
  std::set<Value> distinct;
};

inline Status Accumulate(const std::vector<Aggregate>& aggs,
                         const std::vector<size_t>& agg_idx, const Row& row,
                         std::vector<AggState>* states) {
  for (size_t i = 0; i < aggs.size(); ++i) {
    AggState& st = (*states)[i];
    switch (aggs[i].op) {
      case Aggregate::Op::kCount:
        ++st.count;
        break;
      case Aggregate::Op::kSum: {
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
        st.distinct.insert(row[agg_idx[i]]);
        break;
    }
  }
  return Status::OK();
}

inline Row FinalizeGroup(const std::vector<Aggregate>& aggs, const Row& key,
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

/// Join key: an integral real in int64 range keys as that integer (so
/// Int(1) matches Real(1.0)), any other real by its bits (-0.0 is
/// integral, so it keys as 0), strings and bools by type and value.
inline std::string JoinKey(const Value& v) {
  if (v.is_int()) return "n" + std::to_string(v.int_value());
  if (v.is_real()) {
    const double d = v.real_value();
    if (d >= -9223372036854775808.0 && d < 9223372036854775808.0 &&
        d == std::trunc(d)) {
      return "n" + std::to_string(static_cast<int64_t>(d));
    }
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return "r" + std::to_string(bits);
  }
  if (v.is_bool()) return v.bool_value() ? "b1" : "b0";
  return "s" + v.str_value();
}

}  // namespace internal

/// One filter clause `v op literal` as the row engine evaluates it:
/// ==, !=, <, <=, >, >= under the Value total order, and `matches` as an
/// event-name glob when both sides are strings. An unknown op selects
/// nothing. Written out here rather than through the batch Filter's op
/// table, so the filter suites check that kernel against code it does
/// not run.
inline bool EvalFilterOp(const dataflow::Value& v, const std::string& op,
                         const dataflow::Value& literal) {
  if (op == "==") return v == literal;
  if (op == "!=") return !(v == literal);
  if (op == "<") return v < literal;
  if (op == "<=") return !(literal < v);
  if (op == ">") return literal < v;
  if (op == ">=") return !(v < literal);
  if (op == "matches") {
    return v.is_str() && literal.is_str() &&
           events::EventPattern(literal.str_value()).Matches(v.str_value());
  }
  return false;
}

/// GroupBy as one ordered map fed in row order: output sorted by key, each
/// group's aggregates accumulated in row order (so double SUM is the
/// left-to-right sum).
inline Result<dataflow::Relation> GroupBy(
    const dataflow::Relation& in, const std::vector<std::string>& keys,
    const std::vector<dataflow::Aggregate>& aggs) {
  std::vector<size_t> key_idx;
  for (const auto& k : keys) {
    UNILOG_ASSIGN_OR_RETURN(size_t idx, in.ColumnIndex(k));
    key_idx.push_back(idx);
  }
  std::vector<size_t> agg_idx(aggs.size(), 0);
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].op != dataflow::Aggregate::Op::kCount) {
      UNILOG_ASSIGN_OR_RETURN(agg_idx[i], in.ColumnIndex(aggs[i].column));
    }
  }
  std::vector<std::string> out_cols = keys;
  for (const auto& agg : aggs) out_cols.push_back(agg.as);

  std::map<dataflow::Row, std::vector<internal::AggState>> groups;
  for (const auto& row : in.rows()) {
    dataflow::Row key;
    key.reserve(key_idx.size());
    for (size_t idx : key_idx) key.push_back(row[idx]);
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) it->second.resize(aggs.size());
    UNILOG_RETURN_NOT_OK(
        internal::Accumulate(aggs, agg_idx, row, &it->second));
  }
  std::vector<dataflow::Row> rows;
  for (const auto& [key, states] : groups) {
    rows.push_back(internal::FinalizeGroup(aggs, key, states));
  }
  return dataflow::Relation::FromRows(out_cols, std::move(rows));
}

/// Inner hash join as the row engine ran it: build a table over the right
/// rows, probe it with each left row in order. Output columns: left
/// columns then right columns minus the join column; rows left-major,
/// right matches in right input order.
inline Result<dataflow::Relation> Join(const dataflow::Relation& left,
                                       const dataflow::Relation& right,
                                       const std::string& left_col,
                                       const std::string& right_col) {
  UNILOG_ASSIGN_OR_RETURN(size_t li, left.ColumnIndex(left_col));
  UNILOG_ASSIGN_OR_RETURN(size_t ri, right.ColumnIndex(right_col));
  std::unordered_map<std::string, std::vector<const dataflow::Row*>> table;
  for (const auto& row : right.rows()) {
    table[internal::JoinKey(row[ri])].push_back(&row);
  }
  std::vector<std::string> out_cols = left.columns();
  for (size_t i = 0; i < right.columns().size(); ++i) {
    if (i != ri) out_cols.push_back(right.columns()[i]);
  }
  std::vector<dataflow::Row> rows;
  for (const auto& row : left.rows()) {
    auto it = table.find(internal::JoinKey(row[li]));
    if (it == table.end()) continue;
    for (const dataflow::Row* rrow : it->second) {
      dataflow::Row joined = row;
      for (size_t i = 0; i < rrow->size(); ++i) {
        if (i != ri) joined.push_back((*rrow)[i]);
      }
      rows.push_back(std::move(joined));
    }
  }
  return dataflow::Relation::FromRows(out_cols, std::move(rows));
}

/// Distinct full rows, first occurrence kept, in input order.
inline dataflow::Relation Distinct(const dataflow::Relation& in) {
  std::set<dataflow::Row> seen;
  std::vector<dataflow::Row> rows;
  for (const auto& row : in.rows()) {
    if (seen.insert(row).second) rows.push_back(row);
  }
  return dataflow::Relation::FromRows(in.columns(), std::move(rows)).value();
}

/// Stable sort by one column.
inline Result<dataflow::Relation> OrderBy(const dataflow::Relation& in,
                                          const std::string& column,
                                          bool descending) {
  UNILOG_ASSIGN_OR_RETURN(size_t idx, in.ColumnIndex(column));
  std::vector<dataflow::Row> rows = in.rows();
  std::stable_sort(rows.begin(), rows.end(),
                   [idx, descending](const dataflow::Row& a,
                                     const dataflow::Row& b) {
                     if (descending) return b[idx] < a[idx];
                     return a[idx] < b[idx];
                   });
  return dataflow::Relation::FromRows(in.columns(), std::move(rows));
}

/// The shuffle as concatenate-then-group: every key's values appear in
/// (task index, emission order). Consumes the emitters' pairs.
inline std::map<std::string, std::vector<std::string>> StableShuffle(
    std::vector<dataflow::Emitter>* per_task, uint64_t* bytes_shuffled) {
  std::map<std::string, std::vector<std::string>> groups;
  for (dataflow::Emitter& task : *per_task) {
    for (auto& [key, value] : task.mutable_pairs()) {
      if (bytes_shuffled != nullptr) {
        *bytes_shuffled += key.size() + value.size();
      }
      groups[std::move(key)].push_back(std::move(value));
    }
  }
  return groups;
}

/// A MapReduce job's output from its per-map-task emissions (one emitter
/// per input file, in input order): map-only jobs sort the concatenated
/// emissions stably by key; jobs with a reducer shuffle, reduce each group
/// in key order into one emitter, and sort that stably by key.
inline Result<std::vector<std::pair<std::string, std::string>>> MapReduce(
    std::vector<dataflow::Emitter> per_task,
    const dataflow::MapReduceJob::ReduceFn& reduce) {
  auto by_key = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::vector<std::pair<std::string, std::string>> output;
  if (!reduce) {
    for (dataflow::Emitter& task : per_task) {
      for (auto& pair : task.mutable_pairs()) output.push_back(std::move(pair));
    }
    std::stable_sort(output.begin(), output.end(), by_key);
    return output;
  }
  dataflow::Emitter reduce_out;
  for (const auto& [key, values] : StableShuffle(&per_task, nullptr)) {
    UNILOG_RETURN_NOT_OK(reduce(key, values, &reduce_out));
  }
  output = std::move(reduce_out.mutable_pairs());
  std::stable_sort(output.begin(), output.end(), by_key);
  return output;
}

}  // namespace unilog::relation_oracle

#endif  // UNILOG_TESTS_RELATION_ORACLE_H_
