#ifndef UNILOG_DATAFLOW_RELATION_H_
#define UNILOG_DATAFLOW_RELATION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "exec/executor.h"

namespace unilog::dataflow {

/// A scalar value in the Pig-like relational layer.
class Value {
 public:
  Value() : repr_(int64_t{0}) {}
  static Value Int(int64_t v) { return Value(Repr(v)); }
  static Value Real(double v) { return Value(Repr(v)); }
  static Value Str(std::string v) { return Value(Repr(std::move(v))); }
  static Value Bool(bool v) { return Value(Repr(v)); }

  bool is_int() const { return std::holds_alternative<int64_t>(repr_); }
  bool is_real() const { return std::holds_alternative<double>(repr_); }
  bool is_str() const { return std::holds_alternative<std::string>(repr_); }
  bool is_bool() const { return std::holds_alternative<bool>(repr_); }

  int64_t int_value() const { return std::get<int64_t>(repr_); }
  double real_value() const { return std::get<double>(repr_); }
  const std::string& str_value() const { return std::get<std::string>(repr_); }
  bool bool_value() const { return std::get<bool>(repr_); }

  /// Numeric view (int widened to double); 0 for non-numeric.
  double AsNumber() const;

  /// Total order: by type index, then value — used for sorting and keys.
  bool operator<(const Value& other) const;
  bool operator==(const Value& other) const { return repr_ == other.repr_; }

  std::string ToString() const;

 private:
  using Repr = std::variant<int64_t, double, std::string, bool>;
  explicit Value(Repr repr) : repr_(std::move(repr)) {}
  Repr repr_;
};

using Row = std::vector<Value>;

/// Aggregation specs for GroupBy, mirroring Pig's COUNT/SUM/MIN/MAX and
/// the COUNT-distinct variant §5.2 uses for "sessions containing at least
/// one instance".
struct Aggregate {
  enum class Op { kCount, kSum, kMin, kMax, kCountDistinct };
  Op op = Op::kCount;
  /// Input column (ignored for kCount).
  std::string column;
  /// Output column name.
  std::string as;
};

/// An in-memory relation (named columns + rows): the data model of the
/// Pig-like layer and the interchange type of UDFs and bags. Operators are
/// purely functional (return new relations) and Status-checked, so a
/// misspelled column is an error, not garbage output — one of §3.1's
/// complaints about the legacy world.
///
/// Filter, Project, Distinct and OrderBy are plain loops over the rows.
/// GroupBy and Join convert to a BatchRelation and run its kernels, the
/// only hash aggregation and hash join; they take an optional
/// exec::Executor (nullptr runs inline) and produce byte-identical output
/// at any thread count, floating-point aggregates included.
class Relation {
 public:
  Relation() = default;
  explicit Relation(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  /// Builds a relation from pre-assembled rows (the pattern parallel
  /// producers use); every row must match the schema arity.
  static Result<Relation> FromRows(std::vector<std::string> columns,
                                   std::vector<Row> rows);

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<Row>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }

  /// Appends a row; fails on arity mismatch.
  Status AddRow(Row row);

  Result<size_t> ColumnIndex(const std::string& name) const;

  /// Row-level accessor by column name (checked).
  Result<Value> Get(const Row& row, const std::string& column) const;

  // --- Operators ---

  /// Keeps rows where `predicate` returns true, in row order.
  using Predicate = std::function<bool(const Row& row)>;
  Relation Filter(const Predicate& predicate) const;

  /// Keeps only the named columns, in the given order.
  Result<Relation> Project(const std::vector<std::string>& cols) const;

  /// Groups by key columns and applies aggregates: BatchRelation::GroupBy
  /// over FromRelation(*this). Output columns: keys then aggregate
  /// outputs, sorted by key.
  Result<Relation> GroupBy(const std::vector<std::string>& keys,
                           const std::vector<Aggregate>& aggs,
                           exec::Executor* exec = nullptr) const;

  /// Inner hash join on left_col == right_col: BatchRelation::Join over
  /// both sides' FromRelation, boxed back into rows. Output columns: all
  /// left columns then all right columns except the join column.
  Result<Relation> Join(const Relation& right, const std::string& left_col,
                        const std::string& right_col,
                        exec::Executor* exec = nullptr) const;

  /// Distinct full rows, keeping the first occurrence of each, in row
  /// order. Rows are equal under the Value order, so Real(-0.0) and
  /// Real(0.0) are one value.
  Relation Distinct() const;

  /// Sorts by one column (stable: rows with equal keys keep their order).
  Result<Relation> OrderBy(const std::string& column, bool descending) const;

  Relation Limit(size_t n) const;

  /// Tab-separated rendering for examples and debugging (header + rows).
  std::string ToString(size_t max_rows = 20) const;

 private:
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

}  // namespace unilog::dataflow

#endif  // UNILOG_DATAFLOW_RELATION_H_
