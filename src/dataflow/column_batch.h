#ifndef UNILOG_DATAFLOW_COLUMN_BATCH_H_
#define UNILOG_DATAFLOW_COLUMN_BATCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/relation.h"

namespace unilog::dataflow {

/// Physical layout of one column inside a ColumnBatch. Columns are typed
/// flat arrays so the batch kernels run tight loops instead of per-row
/// std::variant dispatch; kDict carries per-batch dictionary-encoded
/// strings (codes + a shared dictionary), which is how RCFile group
/// dictionaries flow through Filter/Project/GroupBy without a per-row
/// string ever being materialized.
enum class ColumnKind {
  kInt64,   // Value::Int
  kDouble,  // Value::Real
  kBool,    // Value::Bool
  kString,  // Value::Str, one std::string per row
  kDict,    // Value::Str, codes into a shared dictionary
  kValue,   // mixed-type fallback, one Value per row
};

/// Immutable column payload. Exactly one of the per-kind vectors is
/// populated (per `kind`); columns are shared between batches by
/// shared_ptr, so Project and selection-only Filter are O(1) per column.
struct ColumnData {
  ColumnKind kind = ColumnKind::kValue;
  std::vector<int64_t> i64;
  std::vector<double> f64;
  std::vector<uint8_t> b1;
  std::vector<std::string> str;
  std::vector<uint32_t> codes;
  std::shared_ptr<const std::vector<std::string>> dict;
  std::vector<Value> vals;

  size_t size() const;
  /// Approximate heap footprint of the populated payload, the byte weight
  /// morsel-driven scheduling packs by. Shared dictionaries are charged to
  /// every column referencing them.
  uint64_t byte_size() const;
  /// Row `row` as a boxed Value (the facade back into the row engine).
  Value ValueAt(size_t row) const;
};

using ColumnPtr = std::shared_ptr<const ColumnData>;

/// Dictionaries larger than this fall back to plain kString columns: at
/// that point per-row codes stop paying for the indirection (and the
/// dictionary itself would dominate the batch).
inline constexpr size_t kMaxDictEntries = 256;

/// A batch of rows stored column-wise, with an optional selection vector.
/// Filter never copies column data — it only narrows the selection (a
/// sorted list of live row indices); downstream kernels iterate selected
/// rows only. All columns must have the same raw row count.
class ColumnBatch {
 public:
  ColumnBatch() = default;
  ColumnBatch(std::vector<ColumnPtr> cols, size_t rows)
      : cols_(std::move(cols)), rows_(rows) {}

  size_t num_cols() const { return cols_.size(); }
  const ColumnPtr& col(size_t c) const { return cols_[c]; }
  /// Rows physically present in the columns.
  size_t raw_rows() const { return rows_; }
  /// Rows surviving the selection (== raw_rows() when unselected).
  size_t selected_rows() const { return has_sel_ ? sel_.size() : rows_; }

  bool has_selection() const { return has_sel_; }
  const std::vector<uint32_t>& selection() const { return sel_; }
  /// Installs a selection (ascending raw-row indices).
  void SetSelection(std::vector<uint32_t> sel) {
    sel_ = std::move(sel);
    has_sel_ = true;
  }
  /// The raw row index of the k-th selected row.
  size_t RowIndex(size_t k) const { return has_sel_ ? sel_[k] : k; }

  /// Approximate heap footprint: selection vector plus every column's
  /// byte_size().
  uint64_t byte_size() const;

  /// Builds a typed column from boxed values: uniformly-typed inputs get
  /// flat arrays, all-string inputs get a first-appearance dictionary
  /// unless the cardinality exceeds kMaxDictEntries (then plain strings),
  /// mixed inputs fall back to kValue.
  static ColumnPtr BuildColumn(const std::vector<Value>& vals);

 private:
  std::vector<ColumnPtr> cols_;
  size_t rows_ = 0;
  bool has_sel_ = false;
  std::vector<uint32_t> sel_;
};

}  // namespace unilog::dataflow

#endif  // UNILOG_DATAFLOW_COLUMN_BATCH_H_
