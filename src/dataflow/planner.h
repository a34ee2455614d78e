#ifndef UNILOG_DATAFLOW_PLANNER_H_
#define UNILOG_DATAFLOW_PLANNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dataflow/cost_model.h"
#include "dataflow/vector_engine.h"

namespace unilog::dataflow {

/// Header-only table statistics for one scan input: zone maps and
/// event-name dictionaries aggregated from RCFile v2 rowgroup headers
/// (no blob is decompressed to collect them). Legacy v1 groups and
/// non-columnar files contribute row/byte totals only, with `from_v2`
/// false, so estimates degrade to priors instead of lying.
struct TableStats {
  uint64_t total_rows = 0;
  uint64_t row_groups = 0;
  /// On-disk bytes of the scanned files (cost-model currency).
  uint64_t data_bytes = 0;
  std::optional<int64_t> min_timestamp, max_timestamp;
  std::optional<int64_t> min_user_id, max_user_id;
  /// Upper bound on rows per event name: the sum of row counts of the
  /// groups whose dictionary contains the name. Absent name => 0 rows.
  std::map<std::string, uint64_t> name_rows;
  /// Same bound per initiator display name (EventInitiatorName), from the
  /// v2 initiator dictionaries — the code-domain statistic initiator
  /// predicates are estimated with. Absent initiator => 0 rows.
  std::map<std::string, uint64_t> initiator_rows;
  /// True when every contributing group carried v2 zone maps.
  bool from_v2 = false;

  void Merge(const TableStats& other);
};

/// Memoizes per-file TableStats so repeated planning over a warm
/// warehouse never re-reads RCFile headers. Two-level keying:
///
///   1. stat key (path|size|mtime) — resolved without touching a single
///      file byte; hits when the file is literally unchanged in place.
///   2. content key ("rcfp:<fingerprint>" from the header-only
///      RcFileReader::ContentFingerprint, or "szmt:<size>:<mtime>" for
///      non-v2 files) — hits when a file was renamed or rewritten with
///      identical content; the new stat key is recorded as an alias so
///      the next lookup resolves at level 1.
///
/// Values are shared_ptr<const TableStats> for pointer stability; entries
/// are never evicted (a warehouse's part count is bounded). Thread-safe.
class TableStatsCache {
 public:
  struct CacheStats {
    uint64_t stat_hits = 0;
    uint64_t content_hits = 0;
    uint64_t misses = 0;
  };

  /// Level-1 lookup by stat key; null on miss.
  std::shared_ptr<const TableStats> FindByStat(const std::string& stat_key);
  /// Level-2 lookup by content key; records `stat_key` as an alias on a
  /// hit so the file resolves at level 1 next time. Null on miss (which
  /// is also counted — call only after FindByStat missed).
  std::shared_ptr<const TableStats> FindByContent(const std::string& stat_key,
                                                  const std::string& content_key);
  /// Inserts the stats under both keys.
  void Put(const std::string& stat_key, const std::string& content_key,
           TableStats stats);

  CacheStats stats() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const TableStats>> by_stat_;
  std::map<std::string, std::shared_ptr<const TableStats>> by_content_;
  CacheStats stats_;
};

/// Canonical `column op literal-token` text of one clause — exactly the
/// per-residual serialization inside the Oink canonical plan, reused here
/// as the deterministic tie-break for planner orderings so equal-cost
/// clauses never reorder between runs.
std::string CanonicalFilterClause(const FilterExpr& e);

/// Estimated fraction of rows satisfying the clause, in [0, 1].
/// Zone-map-backed columns (timestamp/user_id ranges, event_name
/// dictionary membership) use the stats; everything else falls back to
/// fixed priors (equality 0.1, range 0.3, matches 0.2, != complemented).
double EstimateClauseSelectivity(const TableStats& stats, const FilterExpr& e);

/// Orders conjunctive clauses most-selective-first (cheapest way to
/// shrink the selection early), ties broken by CanonicalFilterClause.
/// Deterministic: a permutation of the input always yields the same
/// output sequence.
std::vector<FilterExpr> OrderFilters(const TableStats& stats,
                                     std::vector<FilterExpr> exprs);

/// How the scan feeds the filter stack. kPushdown folds predicates into
/// the scan (skip groups via zone maps, decode match columns first);
/// kEager decodes everything and lets the batch Filter kernel do the
/// work — cheaper when predicates barely filter (pushdown's re-decode of
/// match columns outweighs the skipped rows).
enum class ScanStrategy { kPushdown, kEager };

struct ScanPlan {
  ScanStrategy strategy = ScanStrategy::kPushdown;
  /// Modeled costs of both alternatives (cost-model milliseconds).
  double pushdown_ms = 0;
  double eager_ms = 0;
  /// Estimated fraction of rows surviving all clauses.
  double selectivity = 1.0;
};

/// Chooses pushdown vs eager under the JobCostModel scan currency.
/// Deterministic; no clauses => eager (pushdown has nothing to skip
/// with), ties => pushdown.
ScanPlan PlanScan(const TableStats& stats,
                  const std::vector<FilterExpr>& clauses,
                  const JobCostModel& model);

}  // namespace unilog::dataflow

#endif  // UNILOG_DATAFLOW_PLANNER_H_
