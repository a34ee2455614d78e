#ifndef UNILOG_DATAFLOW_VECTOR_ENGINE_H_
#define UNILOG_DATAFLOW_VECTOR_ENGINE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/column_batch.h"
#include "dataflow/relation.h"
#include "exec/executor.h"

namespace unilog::dataflow {

/// One conjunctive predicate `column op literal` for the batch Filter
/// kernel. Ops: == != < <= > >= (Value total order, as the Oink residual
/// filters evaluate them) and `matches` (event-name glob; both sides must
/// be strings, as in Pig).
struct FilterExpr {
  std::string column;
  std::string op;
  Value literal;
};

/// Accounting the batch kernels accumulate when a caller passes a sink.
struct KernelStats {
  /// Rows cut at a dictionary-domain step: the predicate was evaluated
  /// once per dictionary entry and the row only compared its int32 code —
  /// its string was never touched.
  uint64_t dict_domain_rows_pruned = 0;
  /// Selected rows entering / surviving the kernel.
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;

  void MergeFrom(const KernelStats& other);
};

/// A relation stored as typed column batches. FilterGroupBy (which
/// GroupBy calls with no filter) and Join here are the only hash
/// aggregation and hash join: Relation::GroupBy and Relation::Join
/// convert with FromRelation and run these kernels. Filter and ProjectAs
/// select exactly the rows and columns the row operators would.
/// Per-group accumulation stays in original row order, so floating-point
/// aggregates are bit-exact, and kernels follow the exec::Executor
/// contract: parallel output is identical to serial at any thread count.
class BatchRelation {
 public:
  BatchRelation() = default;

  /// Row-major -> columnar conversion, chunking into batches of
  /// `batch_rows`. Column types are inferred per batch (see
  /// ColumnBatch::BuildColumn).
  static Result<BatchRelation> FromRelation(const Relation& rel,
                                            size_t batch_rows = 1024);

  /// Assembles from pre-built batches (the scan path). Every batch must
  /// have one column per schema name.
  static Result<BatchRelation> FromBatches(std::vector<std::string> columns,
                                           std::vector<ColumnBatch> batches);

  /// Columnar -> row-major conversion (applies selections).
  Result<Relation> ToRelation() const;

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<ColumnBatch>& batches() const { return batches_; }
  Result<size_t> ColumnIndex(const std::string& name) const;
  /// Rows surviving all selections, across batches.
  size_t TotalRows() const;

  // --- Kernels ---

  /// Conjunctive predicate evaluation -> narrowed selection vectors. No
  /// column data is copied or boxed. Each batch compiles the conjunction
  /// into a program run one step at a time over a selection buffer (the
  /// runner FilterGroupBy shares): every conjunct on a dictionary column is
  /// folded into one per-entry verdict table (the matching code set,
  /// computed once per group dictionary), so rows compare int32 codes and
  /// the strings of filtered-out rows are never touched; dictionary steps
  /// run first (cheapest). Conjunction commutes, so the surviving set is
  /// identical to evaluating the conjuncts in input order. Parallel
  /// batches are scheduled as byte-weighted morsels (`morsels`); outputs
  /// land in per-batch slots, so results stay byte-identical at any
  /// thread count and morsel size.
  Result<BatchRelation> Filter(const std::vector<FilterExpr>& exprs,
                               exec::Executor* exec = nullptr,
                               KernelStats* stats = nullptr,
                               const exec::MorselOptions& morsels = {}) const;

  /// Keeps the named columns in order under new names (the Oink
  /// late-projection shape); O(1) per column per batch.
  Result<BatchRelation> ProjectAs(const std::vector<std::string>& cols,
                                  const std::vector<std::string>& names,
                                  exec::Executor* exec = nullptr) const;

  /// Hash aggregation on encoded keys: FilterGroupBy with no filter.
  /// Output columns: keys then aggregate outputs, sorted by key (Value
  /// order). Groups and COUNT DISTINCT values share one identity: type
  /// and value, with -0.0 equal to 0.0 (so Int(1), Real(1.0) and Str("1")
  /// are three values). SUM over a non-numeric value is a Status failure,
  /// not garbage, and double SUMs are bit-identical at any thread count
  /// (each group accumulates in original row order).
  Result<Relation> GroupBy(const std::vector<std::string>& keys,
                           const std::vector<Aggregate>& aggs,
                           exec::Executor* exec = nullptr) const;

  /// Filter + GroupBy fused, the one hash-aggregation body and the
  /// late-materialization pipeline shape. Per batch (scheduled as
  /// Filter's morsels) the compiled filter program runs into a selection,
  /// whose survivors are split by the exec::Executor::Shards() shard that
  /// owns their group. Per shard, the batches are walked in order and
  /// each owned survivor accumulates straight into the shard's hash
  /// table: no filtered batch is materialized, and a batch whose one key
  /// column is dictionary-encoded resolves its group once per code, not
  /// once per row. Output is
  /// byte-identical to Filter(exprs).GroupBy(keys, aggs) at any thread
  /// count and morsel size: every group is owned by one shard and
  /// accumulates in global row order. An inline run is one shard.
  Result<Relation> FilterGroupBy(const std::vector<FilterExpr>& exprs,
                                 const std::vector<std::string>& keys,
                                 const std::vector<Aggregate>& aggs,
                                 exec::Executor* exec = nullptr,
                                 KernelStats* stats = nullptr,
                                 const exec::MorselOptions& morsels = {}) const;

  /// Inner hash join on left_col == right_col. Output columns: all left
  /// columns then all right columns except the join column; output order
  /// is left-row-major, right matches in right input order. The right
  /// side is built into the table; probes fan out over `exec`. Numbers
  /// join by exact value (Int(1) matches Real(1.0), Real(0.1234567) does
  /// not match Real(0.1234568)); strings and bools by type and value.
  Result<BatchRelation> Join(const BatchRelation& right,
                             const std::string& left_col,
                             const std::string& right_col,
                             exec::Executor* exec = nullptr) const;

 private:
  std::vector<std::string> columns_;
  std::vector<ColumnBatch> batches_;
};

}  // namespace unilog::dataflow

#endif  // UNILOG_DATAFLOW_VECTOR_ENGINE_H_
