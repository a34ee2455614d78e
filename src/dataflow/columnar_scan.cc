#include "dataflow/columnar_scan.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "common/coding.h"
#include "common/compress.h"
#include "dataflow/plan_fingerprint.h"
#include "events/client_event.h"
#include "events/event_name.h"

namespace unilog::dataflow {

namespace {

using columnar::EventColumn;

/// The six relational columns a client-event scan exposes (details stays
/// a storage-only column; the eager loader never exposed it either).
const std::vector<std::pair<std::string, EventColumn>> kDefaultVisible = {
    {"initiator", EventColumn::kInitiator},
    {"event_name", EventColumn::kEventName},
    {"user_id", EventColumn::kUserId},
    {"session_id", EventColumn::kSessionId},
    {"ip", EventColumn::kIp},
    {"timestamp", EventColumn::kTimestamp},
};

/// Typed columns of one scanned columnar group, indexed by source event
/// column. Builds lazily and moves the group's arrays, so each source is
/// converted at most once and shared by every consumer referencing it.
class GroupColumnSource {
 public:
  explicit GroupColumnSource(columnar::RcFileReader::ColumnarGroup cg)
      : cg_(std::move(cg)) {}

  const ColumnPtr& Get(EventColumn source) {
    ColumnPtr& slot = by_source_[static_cast<int>(source)];
    if (slot != nullptr) return slot;
    auto col = std::make_shared<ColumnData>();
    switch (source) {
      case EventColumn::kInitiator:
        col->kind = ColumnKind::kDict;
        col->codes = std::move(cg_.init_codes);
        col->dict = cg_.init_dict;
        break;
      case EventColumn::kEventName:
        col->kind = ColumnKind::kDict;
        col->codes = std::move(cg_.name_codes);
        col->dict = cg_.name_dict;
        break;
      case EventColumn::kUserId:
        col->kind = ColumnKind::kInt64;
        col->i64 = std::move(cg_.user_ids);
        break;
      case EventColumn::kSessionId:
        col->kind = ColumnKind::kString;
        col->str = std::move(cg_.session_ids);
        break;
      case EventColumn::kIp:
        col->kind = ColumnKind::kString;
        col->str = std::move(cg_.ips);
        break;
      case EventColumn::kTimestamp:
        col->kind = ColumnKind::kInt64;
        col->i64 = std::move(cg_.timestamps);
        break;
      case EventColumn::kDetails:
        break;
    }
    slot = std::move(col);
    return slot;
  }

  /// Batch for a visible projection over this group's columns.
  ColumnBatch BatchFor(
      const std::vector<std::pair<std::string, EventColumn>>& visible) {
    std::vector<ColumnPtr> cols;
    cols.reserve(visible.size());
    for (const auto& [name, source] : visible) cols.push_back(Get(source));
    return ColumnBatch(std::move(cols), cg_.rows);
  }

  /// The rows `spec` (compiled as `matcher`) keeps, as a selection vector:
  /// a member's residual over the union scan's shared arrays, through
  /// columnar::SelectRows. The rows its name verdicts cut are added to
  /// *name_cut unless it is null.
  std::vector<uint32_t> Select(const columnar::ScanSpec& spec,
                               const columnar::RowMatcher& matcher,
                               uint64_t* name_cut) {
    if (cg_.rows == 0) return {};  // a skipped group decoded no column
    columnar::PredicateColumns columns;
    std::vector<uint8_t> verdicts;
    if (spec.has_name_predicate()) {
      const ColumnData& names = *Get(EventColumn::kEventName);
      columns.name_codes = names.codes;
      verdicts = matcher.NameVerdicts(*names.dict);
      columns.name_verdicts = verdicts;
    }
    if (spec.min_timestamp.has_value() || spec.max_timestamp.has_value()) {
      columns.timestamps = Get(EventColumn::kTimestamp)->i64;
    }
    if (spec.user_ids.has_value()) {
      columns.user_ids = Get(EventColumn::kUserId)->i64;
    }
    std::vector<uint8_t> keep(cg_.rows, 1);
    const uint64_t cut = columnar::SelectRows(spec, columns, keep);
    if (name_cut != nullptr) *name_cut += cut;
    std::vector<uint32_t> sel;
    sel.reserve(cg_.rows);
    for (size_t r = 0; r < keep.size(); ++r) {
      if (keep[r]) sel.push_back(static_cast<uint32_t>(r));
    }
    return sel;
  }

 private:
  columnar::RcFileReader::ColumnarGroup cg_;
  ColumnPtr by_source_[columnar::kEventColumns];
};

/// A framed-compressed part as one scan unit, yielding the ColumnarGroup a
/// row group yields: every record is parsed, names and initiators get
/// per-part dictionary codes in first-appearance order, columnar::
/// SelectRows selects the rows `spec` admits, and the selected rows'
/// masked columns are kept. The part has no zone map or stored
/// dictionary, so it is always scanned whole.
Status ScanFramedPart(std::string_view part, const columnar::ScanSpec& spec,
                      columnar::RcFileReader::ColumnarGroup* out,
                      columnar::ScanStats* stats) {
  ++stats->groups_total;
  ++stats->groups_scanned;
  stats->bytes_decompressed += part.size();
  UNILOG_ASSIGN_OR_RETURN(std::string body, Lz::Decompress(part));
  std::vector<events::ClientEventView> rows;
  std::vector<events::DetailView> details;
  for (Decoder dec(body); !dec.AtEnd();) {
    std::string_view record;
    UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&record));
    UNILOG_RETURN_NOT_OK(
        events::ReadClientEventBody(record, &rows.emplace_back(), &details));
  }

  const size_t n = rows.size();
  auto name_dict = std::make_shared<std::vector<std::string>>();
  std::unordered_map<std::string_view, uint32_t> name_index;
  std::vector<events::EventInitiator> inits;
  uint32_t init_code[4] = {};  // code + 1, 0 when not seen in the part
  std::vector<uint32_t> name_codes(n), init_codes(n);
  std::vector<int64_t> user_ids(n), timestamps(n);
  for (size_t r = 0; r < n; ++r) {
    const events::ClientEventView& row = rows[r];
    auto [it, fresh] = name_index.try_emplace(
        row.event_name, static_cast<uint32_t>(name_dict->size()));
    if (fresh) name_dict->emplace_back(row.event_name);
    name_codes[r] = it->second;
    uint32_t& code = init_code[static_cast<int>(row.initiator)];
    if (code == 0) {
      inits.push_back(row.initiator);
      code = static_cast<uint32_t>(inits.size());
    }
    init_codes[r] = code - 1;
    user_ids[r] = row.user_id;
    timestamps[r] = row.timestamp;
  }
  const std::vector<uint8_t> verdicts =
      columnar::RowMatcher(spec).NameVerdicts(*name_dict);
  std::vector<uint8_t> keep(n, 1);
  columnar::SelectRows(spec, {name_codes, verdicts, timestamps, user_ids},
                       keep);

  auto has = [&spec](EventColumn c) {
    return (spec.columns & columnar::ColumnBit(c)) != 0;
  };
  for (size_t r = 0; r < n; ++r) {
    if (!keep[r]) continue;
    ++out->rows;
    const events::ClientEventView& row = rows[r];
    if (has(EventColumn::kInitiator)) out->init_codes.push_back(init_codes[r]);
    if (has(EventColumn::kEventName)) out->name_codes.push_back(name_codes[r]);
    if (has(EventColumn::kUserId)) out->user_ids.push_back(row.user_id);
    if (has(EventColumn::kSessionId)) {
      out->session_ids.emplace_back(row.session_id);
    }
    if (has(EventColumn::kIp)) out->ips.emplace_back(row.ip);
    if (has(EventColumn::kTimestamp)) out->timestamps.push_back(row.timestamp);
    if (has(EventColumn::kDetails)) {
      auto& pairs = out->details.emplace_back();
      for (const auto& [k, v] : row.details(details)) pairs.emplace_back(k, v);
    }
  }
  stats->rows_scanned += n;
  stats->rows_returned += out->rows;
  stats->rows_pruned += n - out->rows;
  if (has(EventColumn::kEventName)) out->name_dict = std::move(name_dict);
  if (has(EventColumn::kInitiator)) {
    auto dict = std::make_shared<std::vector<std::string>>();
    for (events::EventInitiator init : inits) {
      dict->emplace_back(events::EventInitiatorName(init));
    }
    out->init_dict = std::move(dict);
    out->init_values = std::move(inits);
  }
  return Status::OK();
}

/// Header-only TableStats of one file body: rowgroup zone maps and
/// dictionaries via CollectGroupStats; framed parts contribute bytes only.
Result<TableStats> FileTableStats(const std::string& body) {
  TableStats total;
  if (columnar::IsRcFile(body)) {
    columnar::RcFileReader reader(body);
    UNILOG_ASSIGN_OR_RETURN(auto groups, reader.CollectGroupStats());
    for (const auto& gs : groups) {
      TableStats t;
      t.total_rows = gs.row_count;
      t.row_groups = 1;
      t.data_bytes = gs.blob_bytes;
      t.min_timestamp = gs.min_timestamp;
      t.max_timestamp = gs.max_timestamp;
      t.min_user_id = gs.min_user_id;
      t.max_user_id = gs.max_user_id;
      for (const auto& name : gs.event_names) {
        t.name_rows[name] = gs.row_count;
      }
      for (const auto& name : gs.initiators) {
        t.initiator_rows[name] = gs.row_count;
      }
      t.has_zone_maps = true;
      total.Merge(t);
    }
  } else {
    TableStats t;
    t.data_bytes = body.size();
    total.Merge(t);
  }
  return total;
}

}  // namespace

Result<std::shared_ptr<ColumnarEventScan>> ColumnarEventScan::Open(
    const hdfs::MiniHdfs* fs, const std::string& dir,
    obs::MetricsRegistry* metrics) {
  auto files = std::make_shared<std::vector<LoadedFile>>();
  UNILOG_ASSIGN_OR_RETURN(auto listing, fs->ListRecursive(dir));
  for (const auto& entry : listing) {
    if (IsHiddenWarehousePath(dir, entry.path)) continue;
    UNILOG_ASSIGN_OR_RETURN(std::string body, fs->ReadFile(entry.path));
    files->push_back({entry.path, std::move(body)});
  }

  auto scan = std::shared_ptr<ColumnarEventScan>(new ColumnarEventScan());
  scan->files_ = std::move(files);
  scan->source_ = dir;
  scan->metrics_ = metrics;
  scan->visible_ = kDefaultVisible;
  scan->SyncColumnMask();
  return scan;
}

std::shared_ptr<ColumnarEventScan> ColumnarEventScan::PlanOnly() {
  auto scan = std::shared_ptr<ColumnarEventScan>(new ColumnarEventScan());
  scan->files_ = std::make_shared<std::vector<LoadedFile>>();
  scan->source_ = "(plan-only)";
  scan->visible_ = kDefaultVisible;
  scan->SyncColumnMask();
  return scan;
}

const std::vector<std::string>& ColumnarEventScan::columns() const {
  return column_names_;
}

std::shared_ptr<ColumnarEventScan> ColumnarEventScan::Clone() const {
  return std::shared_ptr<ColumnarEventScan>(new ColumnarEventScan(*this));
}

std::optional<EventColumn> ColumnarEventScan::Resolve(
    const std::string& name) const {
  for (const auto& [visible_name, source] : visible_) {
    if (visible_name == name) return source;
  }
  return std::nullopt;
}

void ColumnarEventScan::SyncColumnMask() {
  column_names_.clear();
  columnar::ColumnMask mask = 0;
  for (const auto& [name, source] : visible_) {
    column_names_.push_back(name);
    mask |= columnar::ColumnBit(source);
  }
  spec_.columns = mask;
}

bool ColumnarEventScan::PushFilter(const std::string& column,
                                   const std::string& op,
                                   const Value& literal) {
  std::optional<EventColumn> source = Resolve(column);
  if (!source.has_value()) return false;

  auto tighten_min = [this](int64_t v) {
    spec_.min_timestamp =
        spec_.min_timestamp ? std::max(*spec_.min_timestamp, v) : v;
  };
  auto tighten_max = [this](int64_t v) {
    spec_.max_timestamp =
        spec_.max_timestamp ? std::min(*spec_.max_timestamp, v) : v;
  };
  auto intersect =
      [](auto& target, const auto& value) {
        if (!target.has_value()) {
          target.emplace();
          target->insert(value);
        } else if (target->count(value)) {
          target->clear();
          target->insert(value);
        } else {
          // Contradictory equalities: empty allowlist (zero rows, still
          // correct — and every group gets dictionary-skipped).
          target->clear();
        }
      };

  switch (*source) {
    case EventColumn::kTimestamp: {
      if (!literal.is_int()) return false;
      int64_t v = literal.int_value();
      if (op == "==") {
        tighten_min(v);
        tighten_max(v);
      } else if (op == "<=") {
        tighten_max(v);
      } else if (op == ">=") {
        tighten_min(v);
      } else if (op == "<") {
        // Strict bounds fold into the inclusive zone-map ranges; at the
        // integer extreme there is no representable inclusive bound.
        if (v == INT64_MIN) return false;
        tighten_max(v - 1);
      } else if (op == ">") {
        if (v == INT64_MAX) return false;
        tighten_min(v + 1);
      } else {
        return false;
      }
      batch_cache_.reset();
      return true;
    }
    case EventColumn::kEventName: {
      if (!literal.is_str()) return false;
      if (op == "==") {
        intersect(spec_.event_names, literal.str_value());
      } else if (op == "matches") {
        spec_.event_name_patterns.push_back(literal.str_value());
      } else {
        return false;
      }
      batch_cache_.reset();
      return true;
    }
    case EventColumn::kUserId: {
      if (!literal.is_int() || op != "==") return false;
      intersect(spec_.user_ids, literal.int_value());
      batch_cache_.reset();
      return true;
    }
    default:
      return false;
  }
}

bool ColumnarEventScan::PushProject(const std::vector<std::string>& cols,
                                    const std::vector<std::string>& names) {
  if (cols.size() != names.size()) return false;
  std::vector<std::pair<std::string, EventColumn>> next;
  next.reserve(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    std::optional<EventColumn> source = Resolve(cols[i]);
    if (!source.has_value()) return false;
    next.push_back({names[i], *source});
  }
  visible_ = std::move(next);
  SyncColumnMask();
  batch_cache_.reset();
  return true;
}

Result<std::vector<ColumnarEventScan::ScanUnit>> ColumnarEventScan::PlanUnits(
    const std::vector<LoadedFile>& files) {
  std::vector<ScanUnit> units;
  for (const auto& file : files) {
    if (columnar::IsRcFile(file.body)) {
      columnar::RcFileReader reader(file.body);
      UNILOG_ASSIGN_OR_RETURN(auto groups, reader.IndexGroups());
      for (const auto& group : groups) {
        units.push_back({&file, true, group});
      }
    } else {
      units.push_back({&file, false, {0, 0, file.body.size()}});
    }
  }
  return units;
}

Result<Relation> ColumnarEventScan::Materialize(exec::Executor* exec) {
  UNILOG_ASSIGN_OR_RETURN(BatchRelation batches, MaterializeBatches(exec));
  return batches.ToRelation();
}

Result<BatchRelation> ColumnarEventScan::MaterializeBatches(
    exec::Executor* exec) {
  if (batch_cache_.has_value()) return *batch_cache_;
  UNILOG_ASSIGN_OR_RETURN(std::vector<BatchRelation> out,
                          MaterializeSharedBatches({shared_from_this()}, exec));
  return std::move(out[0]);
}

Result<std::vector<BatchRelation>> ColumnarEventScan::MaterializeSharedBatches(
    const std::vector<std::shared_ptr<ColumnarEventScan>>& members,
    exec::Executor* exec, columnar::ScanStats* stats_out) {
  if (members.empty()) return std::vector<BatchRelation>{};
  for (const auto& member : members) {
    if (member == nullptr || member->files_ != members[0]->files_) {
      return Status::InvalidArgument(
          "shared scan members must be clones of one opened scan");
    }
  }

  // A lone member decodes under its own spec, so what it decodes is its
  // answer. A union scan decodes under the merged spec, which every member
  // re-tightens with its own predicates (`residual`, empty for one member).
  std::optional<columnar::ScanSpec> merged;
  std::vector<columnar::RowMatcher> residual;
  if (members.size() > 1) {
    std::vector<columnar::ScanSpec> specs;
    specs.reserve(members.size());
    for (const auto& member : members) specs.push_back(member->spec_);
    merged = MergeScanSpecs(specs);
    residual.reserve(members.size());
    for (const auto& member : members) residual.emplace_back(member->spec_);
  }
  const columnar::ScanSpec& spec = merged ? *merged : members[0]->spec_;

  UNILOG_ASSIGN_OR_RETURN(std::vector<ScanUnit> units,
                          PlanUnits(*members[0]->files_));

  // batch_slots[m][u]: member m's batch from unit u. Each unit decodes
  // once into typed arrays, and every member's batch references the same
  // arrays, with only the selection vector (and projection) per member.
  std::vector<std::vector<ColumnBatch>> batch_slots(
      members.size(), std::vector<ColumnBatch>(units.size()));
  std::vector<columnar::ScanStats> stat_slots(units.size());

  auto run_unit = [&](size_t u) -> Status {
    const ScanUnit& unit = units[u];
    columnar::RcFileReader::ColumnarGroup cg;
    if (unit.is_columnar) {
      UNILOG_RETURN_NOT_OK(columnar::RcFileReader(unit.file->body)
                               .ScanGroupColumnar(unit.group, spec, &cg,
                                                  &stat_slots[u]));
    } else {
      UNILOG_RETURN_NOT_OK(
          ScanFramedPart(unit.file->body, spec, &cg, &stat_slots[u]));
    }
    // A dictionary-domain prune is a row whose string was never decoded;
    // a framed part decodes every string, so its residual cuts count none.
    uint64_t* name_cut =
        unit.is_columnar ? &stat_slots[u].dict_domain_rows_pruned : nullptr;
    GroupColumnSource source(std::move(cg));
    for (size_t m = 0; m < members.size(); ++m) {
      ColumnBatch b = source.BatchFor(members[m]->visible_);
      if (!residual.empty() && members[m]->spec_.has_predicates()) {
        b.SetSelection(source.Select(members[m]->spec_, residual[m], name_cut));
      }
      batch_slots[m][u] = std::move(b);
    }
    return Status::OK();
  };

  std::vector<uint64_t> weights;
  weights.reserve(units.size());
  for (const ScanUnit& unit : units) weights.push_back(unit.group.byte_length);
  UNILOG_RETURN_NOT_OK(exec::OrInline(exec)->ParallelForMorsels(
      "columnar_scan_batch", weights, members[0]->morsel_options_,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t u = begin; u < end; ++u) {
          UNILOG_RETURN_NOT_OK(run_unit(u));
        }
        return Status::OK();
      }));

  columnar::ScanStats total;
  for (const auto& stats : stat_slots) total.MergeFrom(stats);
  columnar::ReportScanStats(total, members[0]->metrics_, members[0]->source_);
  if (stats_out != nullptr) stats_out->MergeFrom(total);

  std::vector<BatchRelation> out;
  out.reserve(members.size());
  for (size_t m = 0; m < members.size(); ++m) {
    std::vector<ColumnBatch> batches;
    batches.reserve(units.size());
    for (ColumnBatch& b : batch_slots[m]) {
      if (b.selected_rows() > 0) batches.push_back(std::move(b));
    }
    UNILOG_ASSIGN_OR_RETURN(
        BatchRelation rel,
        BatchRelation::FromBatches(members[m]->column_names_,
                                   std::move(batches)));
    members[m]->last_stats_ = total;
    members[m]->batch_cache_ = rel;
    out.push_back(std::move(rel));
  }
  return out;
}

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

Result<TableStats> ColumnarEventScan::Stats() const {
  TableStats total;
  for (const auto& file : *files_) {
    UNILOG_ASSIGN_OR_RETURN(TableStats t, FileTableStats(file.body));
    total.Merge(t);
  }
  return total;
}

}  // namespace unilog::dataflow
