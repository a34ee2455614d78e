#ifndef UNILOG_DATAFLOW_PLANNER_H_
#define UNILOG_DATAFLOW_PLANNER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dataflow/vector_engine.h"

namespace unilog::dataflow {

/// Header-only table statistics for one scan input: zone maps and
/// event-name dictionaries aggregated from RCFile rowgroup headers (no
/// column is decoded to collect them). Legacy framed files contribute
/// byte totals only, with `has_zone_maps` false, so estimates degrade to
/// priors instead of lying.
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
  /// initiator dictionaries — the code-domain statistic initiator
  /// predicates are estimated with. Absent initiator => 0 rows.
  std::map<std::string, uint64_t> initiator_rows;
  /// True when every contributing file was an RCFile, so every row is
  /// covered by a group zone map.
  bool has_zone_maps = false;

  void Merge(const TableStats& other);
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

}  // namespace unilog::dataflow

#endif  // UNILOG_DATAFLOW_PLANNER_H_
