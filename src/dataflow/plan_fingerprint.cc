#include "dataflow/plan_fingerprint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace unilog::dataflow {

std::string HexU64(uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::string CanonicalScanSpec(const columnar::ScanSpec& spec) {
  std::string out = "scanspec-v1{cols=";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%x", spec.columns);
  out += buf;
  auto bound = [&](const char* name, const std::optional<int64_t>& v) {
    out += ";";
    out += name;
    out += "=";
    if (v.has_value()) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(*v));
      out += buf;
    } else {
      out += "-";
    }
  };
  bound("min_ts", spec.min_timestamp);
  bound("max_ts", spec.max_timestamp);

  out += ";names=";
  if (spec.event_names.has_value()) {
    // std::set iterates sorted; an empty allowlist ("()") is distinct from
    // no allowlist ("-").
    out += "(";
    bool first = true;
    for (const auto& name : *spec.event_names) {
      if (!first) out += ",";
      first = false;
      out += name;
    }
    out += ")";
  } else {
    out += "-";
  }

  out += ";patterns=(";
  std::vector<std::string> patterns = spec.event_name_patterns;
  std::sort(patterns.begin(), patterns.end());
  patterns.erase(std::unique(patterns.begin(), patterns.end()),
                 patterns.end());
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (i > 0) out += ",";
    out += patterns[i];
  }
  out += ")";

  out += ";uids=";
  if (spec.user_ids.has_value()) {
    out += "(";
    bool first = true;
    for (int64_t id : *spec.user_ids) {
      if (!first) out += ",";
      first = false;
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(id));
      out += buf;
    }
    out += ")";
  } else {
    out += "-";
  }
  out += "}";
  return out;
}

std::string CanonicalFilterClause(const FilterExpr& e) {
  std::string out = e.column + " " + e.op + " ";
  const Value& v = e.literal;
  if (v.is_int()) return out + "i:" + std::to_string(v.int_value());
  if (v.is_bool()) return out + "b:" + (v.bool_value() ? "1" : "0");
  if (v.is_real()) {
    uint64_t bits = 0;
    double d = v.real_value();
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    return out + "r:" + HexU64(bits);
  }
  const std::string& s = v.str_value();
  return out + "s:" + std::to_string(s.size()) + ":" + s;
}

columnar::ScanSpec MergeScanSpecs(
    const std::vector<columnar::ScanSpec>& specs) {
  columnar::ScanSpec merged;
  if (specs.empty()) return merged;

  merged.columns = 0;
  bool all_min = true, all_max = true, all_names = true, all_uids = true;
  bool any_ts = false, any_name = false, any_uid = false;
  for (const auto& spec : specs) {
    merged.columns |= spec.columns;
    all_min = all_min && spec.min_timestamp.has_value();
    all_max = all_max && spec.max_timestamp.has_value();
    all_names = all_names && spec.event_names.has_value();
    all_uids = all_uids && spec.user_ids.has_value();
    any_ts = any_ts || spec.min_timestamp.has_value() ||
             spec.max_timestamp.has_value();
    any_name = any_name || spec.has_name_predicate();
    any_uid = any_uid || spec.user_ids.has_value();
  }

  if (all_min) {
    int64_t v = *specs[0].min_timestamp;
    for (const auto& spec : specs) v = std::min(v, *spec.min_timestamp);
    merged.min_timestamp = v;
  }
  if (all_max) {
    int64_t v = *specs[0].max_timestamp;
    for (const auto& spec : specs) v = std::max(v, *spec.max_timestamp);
    merged.max_timestamp = v;
  }
  if (all_names) {
    merged.event_names.emplace();
    for (const auto& spec : specs) {
      merged.event_names->insert(spec.event_names->begin(),
                                 spec.event_names->end());
    }
  }
  if (all_uids) {
    merged.user_ids.emplace();
    for (const auto& spec : specs) {
      merged.user_ids->insert(spec.user_ids->begin(), spec.user_ids->end());
    }
  }
  // Patterns are per-spec conjunctive; the merge may only keep a pattern
  // every input imposes (sorted for a canonical result).
  std::vector<std::string> common = specs[0].event_name_patterns;
  std::sort(common.begin(), common.end());
  common.erase(std::unique(common.begin(), common.end()), common.end());
  for (size_t i = 1; i < specs.size() && !common.empty(); ++i) {
    std::vector<std::string> next;
    for (const auto& p : common) {
      if (std::find(specs[i].event_name_patterns.begin(),
                    specs[i].event_name_patterns.end(),
                    p) != specs[i].event_name_patterns.end()) {
        next.push_back(p);
      }
    }
    common = std::move(next);
  }
  merged.event_name_patterns = std::move(common);

  // Residual filters re-evaluate predicates row-wise on the shared
  // output, so every predicate column must be materialized.
  if (any_ts) merged.columns |= columnar::ColumnBit(columnar::EventColumn::kTimestamp);
  if (any_name) merged.columns |= columnar::ColumnBit(columnar::EventColumn::kEventName);
  if (any_uid) merged.columns |= columnar::ColumnBit(columnar::EventColumn::kUserId);
  return merged;
}

}  // namespace unilog::dataflow
