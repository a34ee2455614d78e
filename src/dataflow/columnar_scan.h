#ifndef UNILOG_DATAFLOW_COLUMNAR_SCAN_H_
#define UNILOG_DATAFLOW_COLUMNAR_SCAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "columnar/rcfile.h"
#include "common/result.h"
#include "common/status.h"
#include "dataflow/relation.h"
#include "dataflow/vector_engine.h"
#include "hdfs/mini_hdfs.h"

namespace unilog::dataflow {

using hdfs::IsHiddenWarehousePath;

/// Header-only statistics of a scan's file set: zone maps and event-name
/// and initiator dictionaries aggregated from RCFile rowgroup headers (no
/// column is decoded to collect them). Framed-compressed parts contribute
/// byte totals only, with `has_zone_maps` false.
struct TableStats {
  uint64_t total_rows = 0;
  uint64_t row_groups = 0;
  /// On-disk bytes of the scanned files.
  uint64_t data_bytes = 0;
  std::optional<int64_t> min_timestamp, max_timestamp;
  std::optional<int64_t> min_user_id, max_user_id;
  /// Upper bound on rows per event name: the sum of row counts of the
  /// groups whose dictionary contains the name. Absent name => 0 rows.
  std::map<std::string, uint64_t> name_rows;
  /// Same bound per initiator display name (EventInitiatorName), from the
  /// initiator dictionaries. Absent initiator => 0 rows.
  std::map<std::string, uint64_t> initiator_rows;
  /// True when every contributing file was an RCFile, so every row is
  /// covered by a group zone map.
  bool has_zone_maps = false;

  void Merge(const TableStats& other);
};

/// A deferred table scan over a warehouse directory of client-event files,
/// in either format, through one body: every scan unit yields an
/// RcFileReader::ColumnarGroup of typed arrays. An RCFile row group gets
/// zone-map/dictionary group skipping and encoded-id predicate pruning; a
/// framed-compressed part is parsed whole and dictionary-coded per part,
/// keeping the rows its spec selects. Visible columns: {initiator,
/// event_name, user_id, session_id, ip, timestamp}.
///
/// Pig's LOAD with a scan loader binds one of these instead of
/// materializing a Relation; an immediately-following FILTER (column op
/// literal) or FOREACH (pure column projection) is then absorbed into the
/// scan, and the relation only materializes when a non-fusible operator
/// consumes it — the pushdown-instead-of-materialize-then-filter plan the
/// paper's loaders ("abstracting over details of the physical layout")
/// enable. Oink pushes each workflow's plan the same way.
class ColumnarEventScan
    : public std::enable_shared_from_this<ColumnarEventScan> {
 public:
  /// Reads the file bodies under `dir` (entries with any '_'-prefixed
  /// path component below `dir` are ignored — see IsHiddenWarehousePath).
  /// Scan accounting is reported into `metrics` (labels {source=<dir>})
  /// at each materialization; may be null.
  static Result<std::shared_ptr<ColumnarEventScan>> Open(
      const hdfs::MiniHdfs* fs, const std::string& dir,
      obs::MetricsRegistry* metrics = nullptr);

  /// A plan-only scan over an empty file set: filters and projections push
  /// exactly as on an opened scan, so the Oink layer canonicalizes a
  /// workflow's plan (spec + visible columns) without touching storage.
  /// Materialize yields an empty relation.
  static std::shared_ptr<ColumnarEventScan> PlanOnly();

  /// The schema the scan would materialize (respecting pushed
  /// projections/renames), available without scanning anything.
  const std::vector<std::string>& columns() const;

  /// Aliases must stay independent: Pig clones before tightening, so
  /// `filtered = FILTER raw BY ...` never mutates `raw`'s plan. Clones
  /// share the opened file set.
  std::shared_ptr<ColumnarEventScan> Clone() const;

  /// Attempts to absorb the predicate `column op literal` (ops: == != <
  /// <= > >= matches, as in Pig FILTER). Returns false when this
  /// predicate cannot be fused; the caller then materializes and filters.
  bool PushFilter(const std::string& column, const std::string& op,
                  const Value& literal);

  /// Attempts to absorb a projection of `cols` (current visible names)
  /// renamed to `names`. False when any column is not fusible.
  bool PushProject(const std::vector<std::string>& cols,
                   const std::vector<std::string>& names);

  /// MaterializeBatches(exec) boxed into a row Relation — the form Pig
  /// and the UDFs consume. One decode path feeds both engines.
  Result<Relation> Materialize(exec::Executor* exec);

  /// Runs the scan (or returns the cached result of a previous run) as
  /// typed column batches: the one-member case of MaterializeSharedBatches.
  Result<BatchRelation> MaterializeBatches(exec::Executor* exec);

  /// Runs one scan for every member, each getting its own output — the
  /// Oink shared-scan fast path. Every member must be a Clone() of the
  /// same opened scan (they share one immutable file set). Output i holds
  /// one batch per scan unit (a row group or a framed part) that kept a
  /// row, merged in unit order, so it is byte-identical at any thread
  /// count. Unit dictionaries pass through as dictionary columns:
  /// event-name/initiator strings are materialized once per distinct
  /// value per unit, never per row.
  ///
  /// A lone member decodes under its own spec. Two or more decode each
  /// unit once under the MergeScanSpecs union of their specs; each member
  /// then re-tightens with its own predicates as a selection vector over
  /// *shared* column arrays (no per-member copy) and projects its visible
  /// columns; its name cuts count as dict_domain_rows_pruned on RCFile
  /// groups only. The scan's accounting lands in `stats_out` (may be null) and
  /// in each member's last_stats(); members' batch caches are filled so
  /// later Materialize calls decode nothing.
  static Result<std::vector<BatchRelation>> MaterializeSharedBatches(
      const std::vector<std::shared_ptr<ColumnarEventScan>>& members,
      exec::Executor* exec, columnar::ScanStats* stats_out = nullptr);

  /// Header-only statistics over the file set: RCFile rowgroup zone maps
  /// and dictionaries aggregated via
  /// RcFileReader::CollectGroupStats (no column decoded); framed parts
  /// contribute bytes only.
  Result<TableStats> Stats() const;

  /// Morsel packing knobs for the parallel scan (scan units weighted by
  /// row-group byte length; framed parts by body size).
  void set_morsel_options(const exec::MorselOptions& options) {
    morsel_options_ = options;
  }
  const exec::MorselOptions& morsel_options() const { return morsel_options_; }

  /// The accumulated spec (for tests and EXPLAIN-style debugging).
  const columnar::ScanSpec& spec() const { return spec_; }
  /// Visible output columns after pushed projections: (name, source).
  const std::vector<std::pair<std::string, columnar::EventColumn>>& visible()
      const {
    return visible_;
  }
  /// Accounting of the last Materialize run.
  const columnar::ScanStats& last_stats() const { return last_stats_; }

 private:
  struct LoadedFile {
    std::string path;
    std::string body;
  };

  /// One independently scannable work item: a columnar row group or a
  /// whole framed-compressed part. Both yield one ColumnarGroup. A framed
  /// unit's `group` holds only its byte length, the part's size, which
  /// morsel packing weighs like a row group's extent.
  struct ScanUnit {
    const LoadedFile* file = nullptr;
    bool is_columnar = false;
    columnar::RcFileReader::RowGroupHandle group;
  };

  ColumnarEventScan() = default;

  /// One unit per (columnar file, row group); one unit per framed part,
  /// in file order (sorted listing) x group order.
  static Result<std::vector<ScanUnit>> PlanUnits(
      const std::vector<LoadedFile>& files);

  /// Resolves a visible column name to its source event column.
  std::optional<columnar::EventColumn> Resolve(const std::string& name) const;
  void SyncColumnMask();

  std::shared_ptr<const std::vector<LoadedFile>> files_;
  std::string source_;
  obs::MetricsRegistry* metrics_ = nullptr;
  /// Visible output columns: (name, source column), in output order.
  std::vector<std::pair<std::string, columnar::EventColumn>> visible_;
  std::vector<std::string> column_names_;
  columnar::ScanSpec spec_;
  exec::MorselOptions morsel_options_;
  std::optional<BatchRelation> batch_cache_;
  columnar::ScanStats last_stats_;
};

}  // namespace unilog::dataflow

#endif  // UNILOG_DATAFLOW_COLUMNAR_SCAN_H_
