#include "dataflow/planner.h"

#include <algorithm>
#include <cstring>

#include "events/event_name.h"

namespace unilog::dataflow {

namespace {

// Fallback priors when no statistic covers the clause.
constexpr double kEqPrior = 0.1;
constexpr double kRangePrior = 0.3;
constexpr double kMatchesPrior = 0.2;

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

std::string HexU64(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::string LiteralToken(const Value& v) {
  if (v.is_int()) return "i:" + std::to_string(v.int_value());
  if (v.is_bool()) return std::string("b:") + (v.bool_value() ? "1" : "0");
  if (v.is_real()) {
    uint64_t bits = 0;
    double d = v.real_value();
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return "r:" + HexU64(bits);
  }
  const std::string& s = v.str_value();
  return "s:" + std::to_string(s.size()) + ":" + s;
}

/// Fraction of the [min, max] zone covered by `v op lit` for an integer
/// column with an (inclusive) zone map.
double RangeFraction(int64_t min, int64_t max, const std::string& op,
                     int64_t lit) {
  const double span = static_cast<double>(max) - static_cast<double>(min) + 1;
  const double below =  // rows with value < lit (uniform assumption)
      Clamp01((static_cast<double>(lit) - static_cast<double>(min)) / span);
  const double at_most = Clamp01(
      (static_cast<double>(lit) - static_cast<double>(min) + 1) / span);
  if (op == "<") return below;
  if (op == "<=") return at_most;
  if (op == ">") return 1.0 - at_most;
  if (op == ">=") return 1.0 - below;
  if (op == "==") return lit < min || lit > max ? 0.0 : Clamp01(1.0 / span);
  if (op == "!=") return lit < min || lit > max ? 1.0 : 1.0 - Clamp01(1.0 / span);
  return kRangePrior;
}

double Prior(const std::string& op) {
  if (op == "==") return kEqPrior;
  if (op == "!=") return 1.0 - kEqPrior;
  if (op == "matches") return kMatchesPrior;
  return kRangePrior;
}

}  // namespace

void TableStats::Merge(const TableStats& other) {
  if (other.total_rows == 0 && other.row_groups == 0 &&
      other.data_bytes == 0) {
    return;
  }
  const bool was_empty = total_rows == 0 && row_groups == 0 && data_bytes == 0;
  total_rows += other.total_rows;
  row_groups += other.row_groups;
  data_bytes += other.data_bytes;
  auto merge_bound = [](std::optional<int64_t>* mine,
                        const std::optional<int64_t>& theirs, bool lower) {
    if (!theirs.has_value()) return;
    if (!mine->has_value()) {
      *mine = theirs;
    } else {
      *mine = lower ? std::min(**mine, *theirs) : std::max(**mine, *theirs);
    }
  };
  merge_bound(&min_timestamp, other.min_timestamp, true);
  merge_bound(&max_timestamp, other.max_timestamp, false);
  merge_bound(&min_user_id, other.min_user_id, true);
  merge_bound(&max_user_id, other.max_user_id, false);
  for (const auto& [name, rows] : other.name_rows) name_rows[name] += rows;
  for (const auto& [name, rows] : other.initiator_rows) {
    initiator_rows[name] += rows;
  }
  has_zone_maps = (was_empty || has_zone_maps) && other.has_zone_maps;
}

std::string CanonicalFilterClause(const FilterExpr& e) {
  return e.column + " " + e.op + " " + LiteralToken(e.literal);
}

double EstimateClauseSelectivity(const TableStats& stats,
                                 const FilterExpr& e) {
  if (stats.total_rows == 0) return Prior(e.op);

  if (e.column == "timestamp" && e.literal.is_int() &&
      stats.min_timestamp.has_value() && stats.max_timestamp.has_value() &&
      e.op != "matches") {
    return Clamp01(RangeFraction(*stats.min_timestamp, *stats.max_timestamp,
                                 e.op, e.literal.int_value()));
  }
  if (e.column == "user_id" && e.literal.is_int() &&
      stats.min_user_id.has_value() && stats.max_user_id.has_value() &&
      e.op != "matches") {
    return Clamp01(RangeFraction(*stats.min_user_id, *stats.max_user_id, e.op,
                                 e.literal.int_value()));
  }
  if (e.column == "event_name" && e.literal.is_str() &&
      !stats.name_rows.empty()) {
    const double total = static_cast<double>(stats.total_rows);
    if (e.op == "==" || e.op == "!=") {
      auto it = stats.name_rows.find(e.literal.str_value());
      const double hit =
          it == stats.name_rows.end()
              ? 0.0
              : Clamp01(static_cast<double>(it->second) / total);
      return e.op == "==" ? hit : 1.0 - hit;
    }
    if (e.op == "matches") {
      events::EventPattern pattern(e.literal.str_value());
      uint64_t rows = 0;
      for (const auto& [name, n] : stats.name_rows) {
        if (pattern.Matches(name)) rows += n;
      }
      return Clamp01(static_cast<double>(rows) / total);
    }
  }
  // Initiator predicates estimate from the initiator dictionaries,
  // exactly as event_name does from the name dictionaries.
  if (e.column == "initiator" && e.literal.is_str() &&
      !stats.initiator_rows.empty()) {
    const double total = static_cast<double>(stats.total_rows);
    if (e.op == "==" || e.op == "!=") {
      auto it = stats.initiator_rows.find(e.literal.str_value());
      const double hit =
          it == stats.initiator_rows.end()
              ? 0.0
              : Clamp01(static_cast<double>(it->second) / total);
      return e.op == "==" ? hit : 1.0 - hit;
    }
    if (e.op == "matches") {
      events::EventPattern pattern(e.literal.str_value());
      uint64_t rows = 0;
      for (const auto& [name, n] : stats.initiator_rows) {
        if (pattern.Matches(name)) rows += n;
      }
      return Clamp01(static_cast<double>(rows) / total);
    }
  }
  return Prior(e.op);
}

std::vector<FilterExpr> OrderFilters(const TableStats& stats,
                                     std::vector<FilterExpr> exprs) {
  struct Keyed {
    double sel;
    std::string token;
    size_t idx;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    keyed.push_back(
        {EstimateClauseSelectivity(stats, exprs[i]),
         CanonicalFilterClause(exprs[i]), i});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.sel != b.sel) return a.sel < b.sel;
    return a.token < b.token;
  });
  std::vector<FilterExpr> out;
  out.reserve(exprs.size());
  for (const Keyed& k : keyed) out.push_back(std::move(exprs[k.idx]));
  return out;
}

}  // namespace unilog::dataflow
