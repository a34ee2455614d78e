#include "columnar/rcfile.h"

#include <algorithm>
#include <iterator>

#include "common/coding.h"
#include "common/compress.h"
#include "events/event_name.h"
#include "obs/metrics.h"

namespace unilog::columnar {

namespace {

/// FNV-1a over a byte range: the group checksum. Zone maps and
/// dictionaries live uncompressed in the header, where a flipped byte
/// would otherwise read back as silently different data (unlike the
/// compressed blobs, which usually fail Lz decoding).
uint32_t Fnv1a(std::string_view data) {
  uint32_t h = 2166136261u;
  for (unsigned char c : data) {
    h ^= c;
    h *= 16777619u;
  }
  return h;
}

/// A parsed row-group header. In v2 the zone map and the dictionaries live
/// in the header, uncompressed, so group skipping touches no compressed
/// data; the dictionary entry views point into the file body and stay
/// valid for the reader's lifetime.
struct GroupHeader {
  uint64_t row_count = 0;
  int64_t min_ts = 0, max_ts = 0;
  int64_t min_uid = 0, max_uid = 0;
  std::vector<std::string_view> name_dict;
  std::vector<events::EventInitiator> init_dict;
  /// v2: checksum over the group's blob section, verified only when the
  /// group is actually scanned — a zone-map skip stays header-only.
  uint32_t blobs_checksum = 0;
  /// v2: the stored header checksum (already verified against the header
  /// bytes by ReadGroupHeader); kept so ContentFingerprint can fold the
  /// embedded checksums into a whole-file digest without re-hashing.
  uint32_t header_checksum = 0;
};

Status ReadGroupHeader(Decoder* dec, int version, GroupHeader* hdr) {
  const size_t header_begin = dec->position();
  UNILOG_RETURN_NOT_OK(dec->GetVarint64(&hdr->row_count));
  if (hdr->row_count == 0 || hdr->row_count > kMaxRowsPerGroup) {
    return Status::Corruption("rcfile: implausible row-group size");
  }
  if (version < 2) return Status::OK();
  UNILOG_RETURN_NOT_OK(dec->GetSignedVarint64(&hdr->min_ts));
  UNILOG_RETURN_NOT_OK(dec->GetSignedVarint64(&hdr->max_ts));
  UNILOG_RETURN_NOT_OK(dec->GetSignedVarint64(&hdr->min_uid));
  UNILOG_RETURN_NOT_OK(dec->GetSignedVarint64(&hdr->max_uid));
  uint64_t names = 0;
  UNILOG_RETURN_NOT_OK(dec->GetVarint64(&names));
  if (names > hdr->row_count) {
    return Status::Corruption("rcfile: dictionary larger than row group");
  }
  // Dictionaries grow entry by entry as they parse, never from the claimed
  // counts, so a hostile count costs no more than the bytes behind it.
  for (uint64_t i = 0; i < names; ++i) {
    std::string_view name;
    UNILOG_RETURN_NOT_OK(dec->GetLengthPrefixed(&name));
    hdr->name_dict.push_back(name);
  }
  uint64_t inits = 0;
  UNILOG_RETURN_NOT_OK(dec->GetVarint64(&inits));
  if (inits > 4) return Status::Corruption("rcfile: bad initiator dictionary");
  for (uint64_t i = 0; i < inits; ++i) {
    uint64_t v = 0;
    UNILOG_RETURN_NOT_OK(dec->GetVarint64(&v));
    if (v > 3) return Status::Corruption("rcfile: bad initiator");
    hdr->init_dict.push_back(static_cast<events::EventInitiator>(v));
  }
  // The uncompressed header (zone map + dictionaries) is checksummed: a
  // flipped dictionary byte must fail loudly, not read back as a
  // different event name.
  const size_t header_end = dec->position();
  uint32_t expected = 0;
  UNILOG_RETURN_NOT_OK(dec->GetVarint32(&expected));
  if (Fnv1a(dec->data().substr(header_begin, header_end - header_begin)) !=
      expected) {
    return Status::Corruption("rcfile: row-group header checksum mismatch");
  }
  hdr->header_checksum = expected;
  UNILOG_RETURN_NOT_OK(dec->GetVarint32(&hdr->blobs_checksum));
  return Status::OK();
}

/// Advances past a group's column blobs without decompressing any.
Status SkipBlobs(Decoder* dec) {
  for (int c = 0; c < kEventColumns; ++c) {
    std::string_view blob;
    UNILOG_RETURN_NOT_OK(dec->GetLengthPrefixed(&blob));
  }
  return Status::OK();
}

/// Per-group scratch: each needed column is decompressed at most once.
struct GroupBlobs {
  std::string_view compressed[kEventColumns];
  std::string decompressed[kEventColumns];
  bool done[kEventColumns] = {};

  Status Ensure(EventColumn column, ScanStats* stats) {
    int c = static_cast<int>(column);
    if (done[c]) return Status::OK();
    stats->bytes_decompressed += compressed[c].size();
    UNILOG_ASSIGN_OR_RETURN(decompressed[c], Lz::Decompress(compressed[c]));
    done[c] = true;
    return Status::OK();
  }
};

Status DecodeNameIds(std::string_view blob, const GroupHeader& hdr,
                     std::vector<uint32_t>* ids) {
  Decoder dec(blob);
  ids->resize(hdr.row_count);
  for (auto& id : *ids) {
    UNILOG_RETURN_NOT_OK(dec.GetVarint32(&id));
    if (id >= hdr.name_dict.size()) {
      return Status::Corruption("rcfile: event-name id out of range");
    }
  }
  if (!dec.AtEnd()) return Status::Corruption("rcfile: column overrun");
  return Status::OK();
}

Status DecodeInt64Column(std::string_view blob, uint64_t row_count,
                         std::vector<int64_t>* values) {
  Decoder dec(blob);
  values->resize(row_count);
  for (auto& v : *values) {
    UNILOG_RETURN_NOT_OK(dec.GetSignedVarint64(&v));
  }
  if (!dec.AtEnd()) return Status::Corruption("rcfile: column overrun");
  return Status::OK();
}

/// The selection half of a group scan: header, group-level skips, blob
/// section + checksum, and the per-row selection bitmap from encoded/cheap
/// columns. Columns decoded for predicates stay cached in `name_ids` /
/// `ts_vals` / `uid_vals` so the column decoder never decodes them twice.
struct GroupSelection {
  GroupHeader hdr;
  bool skipped = false;
  GroupBlobs blobs;
  std::vector<uint8_t> sel;
  std::vector<uint32_t> name_ids;
  std::vector<int64_t> ts_vals, uid_vals;
  size_t selected = 0;
};

Status SelectGroupRows(Decoder* dec, int version, const ScanSpec& spec,
                       const RowMatcher& matcher, GroupSelection* g,
                       ScanStats* stats) {
  GroupHeader& hdr = g->hdr;
  UNILOG_RETURN_NOT_OK(ReadGroupHeader(dec, version, &hdr));
  ++stats->groups_total;

  // Group-level skips, all header-only (v2; a v1 group has no zone map).
  std::vector<uint8_t> name_flags;
  if (version >= 2) {
    bool skip = false;
    if (spec.min_timestamp.has_value() && hdr.max_ts < *spec.min_timestamp) {
      skip = true;
    }
    if (spec.max_timestamp.has_value() && hdr.min_ts > *spec.max_timestamp) {
      skip = true;
    }
    if (!skip && spec.user_ids.has_value()) {
      auto it = spec.user_ids->lower_bound(hdr.min_uid);
      if (it == spec.user_ids->end() || *it > hdr.max_uid) skip = true;
    }
    bool dict_skip = false;
    if (!skip && spec.has_name_predicate()) {
      name_flags.resize(hdr.name_dict.size());
      bool any = false;
      for (size_t i = 0; i < hdr.name_dict.size(); ++i) {
        name_flags[i] = matcher.NameMatches(hdr.name_dict[i]) ? 1 : 0;
        any = any || name_flags[i] != 0;
      }
      if (!any) skip = dict_skip = true;
    }
    if (skip) {
      UNILOG_RETURN_NOT_OK(SkipBlobs(dec));
      ++stats->groups_skipped;
      stats->rows_pruned += hdr.row_count;
      if (dict_skip) stats->dict_domain_rows_pruned += hdr.row_count;
      g->skipped = true;
      return Status::OK();
    }
  }

  GroupBlobs& blobs = g->blobs;
  const size_t blobs_begin = dec->position();
  for (int c = 0; c < kEventColumns; ++c) {
    UNILOG_RETURN_NOT_OK(dec->GetLengthPrefixed(&blobs.compressed[c]));
  }
  if (version >= 2 &&
      Fnv1a(dec->data().substr(blobs_begin, dec->position() - blobs_begin)) !=
          hdr.blobs_checksum) {
    return Status::Corruption("rcfile: row-group blob checksum mismatch");
  }
  // Every column encoding spends at least one byte per row, so a column
  // that decompresses to fewer bytes than the claimed row count is
  // corrupt. Its size is the Lz block's leading varint (Decompress holds
  // the block to it), so this runs before anything is sized from the
  // claimed count and before any blob is decompressed.
  for (std::string_view blob : blobs.compressed) {
    Decoder lz(blob);
    uint64_t decompressed_size = 0;
    UNILOG_RETURN_NOT_OK(lz.GetVarint64(&decompressed_size));
    if (decompressed_size < hdr.row_count) {
      return Status::Corruption("rcfile: column shorter than its row count");
    }
  }
  ++stats->groups_scanned;
  stats->rows_scanned += hdr.row_count;

  // Row selection on encoded / cheap columns, before materialization.
  std::vector<uint8_t>& sel = g->sel;
  sel.assign(hdr.row_count, 1);
  if (spec.has_name_predicate()) {
    UNILOG_RETURN_NOT_OK(blobs.Ensure(EventColumn::kEventName, stats));
    std::string_view blob =
        blobs.decompressed[static_cast<int>(EventColumn::kEventName)];
    if (version >= 2) {
      UNILOG_RETURN_NOT_OK(DecodeNameIds(blob, hdr, &g->name_ids));
      for (uint64_t r = 0; r < hdr.row_count; ++r) {
        if (name_flags[g->name_ids[r]] == 0) {
          sel[r] = 0;
          ++stats->dict_domain_rows_pruned;
        }
      }
    } else {
      Decoder col(blob);
      for (uint64_t r = 0; r < hdr.row_count; ++r) {
        std::string_view name;
        UNILOG_RETURN_NOT_OK(col.GetLengthPrefixed(&name));
        if (!matcher.NameMatches(name)) sel[r] = 0;
      }
      if (!col.AtEnd()) return Status::Corruption("rcfile: column overrun");
    }
  }
  if (spec.min_timestamp.has_value() || spec.max_timestamp.has_value()) {
    UNILOG_RETURN_NOT_OK(blobs.Ensure(EventColumn::kTimestamp, stats));
    UNILOG_RETURN_NOT_OK(DecodeInt64Column(
        blobs.decompressed[static_cast<int>(EventColumn::kTimestamp)],
        hdr.row_count, &g->ts_vals));
    for (uint64_t r = 0; r < hdr.row_count; ++r) {
      if (spec.min_timestamp.has_value() &&
          g->ts_vals[r] < *spec.min_timestamp) {
        sel[r] = 0;
      }
      if (spec.max_timestamp.has_value() &&
          g->ts_vals[r] > *spec.max_timestamp) {
        sel[r] = 0;
      }
    }
  }
  if (spec.user_ids.has_value()) {
    UNILOG_RETURN_NOT_OK(blobs.Ensure(EventColumn::kUserId, stats));
    UNILOG_RETURN_NOT_OK(DecodeInt64Column(
        blobs.decompressed[static_cast<int>(EventColumn::kUserId)],
        hdr.row_count, &g->uid_vals));
    for (uint64_t r = 0; r < hdr.row_count; ++r) {
      if (spec.user_ids->count(g->uid_vals[r]) == 0) sel[r] = 0;
    }
  }

  size_t selected = 0;
  for (uint64_t r = 0; r < hdr.row_count; ++r) selected += sel[r];
  g->selected = selected;
  stats->rows_pruned += hdr.row_count - selected;
  stats->rows_returned += selected;
  return Status::OK();
}

/// Scans one group at the decoder's position, leaving the decoder past it:
/// SelectGroupRows, then the selected rows' masked columns land in typed
/// arrays, the dictionary-encoded columns staying encoded (codes + a
/// materialized-once dictionary). The only code that decodes column blobs.
Status ScanOneGroupColumnar(Decoder* dec, int version, const ScanSpec& spec,
                            const RowMatcher& matcher,
                            RcFileReader::ColumnarGroup* out,
                            ScanStats* stats) {
  GroupSelection g;
  UNILOG_RETURN_NOT_OK(SelectGroupRows(dec, version, spec, matcher, &g, stats));
  out->rows = g.selected;
  if (g.skipped || g.selected == 0) return Status::OK();
  const GroupHeader& hdr = g.hdr;

  for (int c = 0; c < kEventColumns; ++c) {
    if ((spec.columns & (1u << c)) == 0) continue;
    auto column = static_cast<EventColumn>(c);
    switch (column) {
      case EventColumn::kEventName: {
        if (version >= 2) {
          if (g.name_ids.empty()) {
            UNILOG_RETURN_NOT_OK(g.blobs.Ensure(column, stats));
            UNILOG_RETURN_NOT_OK(
                DecodeNameIds(g.blobs.decompressed[c], hdr, &g.name_ids));
          }
          auto dict = std::make_shared<std::vector<std::string>>();
          dict->reserve(hdr.name_dict.size());
          for (std::string_view sv : hdr.name_dict) dict->emplace_back(sv);
          out->name_codes.reserve(g.selected);
          for (uint64_t r = 0; r < hdr.row_count; ++r) {
            if (g.sel[r]) out->name_codes.push_back(g.name_ids[r]);
          }
          out->name_dict = std::move(dict);
        } else {
          UNILOG_RETURN_NOT_OK(g.blobs.Ensure(column, stats));
          Decoder col(g.blobs.decompressed[c]);
          out->name_strs.reserve(g.selected);
          for (uint64_t r = 0; r < hdr.row_count; ++r) {
            std::string_view sv;
            UNILOG_RETURN_NOT_OK(col.GetLengthPrefixed(&sv));
            if (g.sel[r]) out->name_strs.emplace_back(sv);
          }
          if (!col.AtEnd()) {
            return Status::Corruption("rcfile: column overrun");
          }
        }
        break;
      }
      case EventColumn::kInitiator: {
        UNILOG_RETURN_NOT_OK(g.blobs.Ensure(column, stats));
        Decoder col(g.blobs.decompressed[c]);
        auto dict = std::make_shared<std::vector<std::string>>();
        out->init_codes.reserve(g.selected);
        if (version >= 2) {
          out->init_values = hdr.init_dict;
          for (uint64_t r = 0; r < hdr.row_count; ++r) {
            uint64_t v = 0;
            UNILOG_RETURN_NOT_OK(col.GetVarint64(&v));
            if (v >= hdr.init_dict.size()) {
              return Status::Corruption("rcfile: initiator id out of range");
            }
            if (g.sel[r]) {
              out->init_codes.push_back(static_cast<uint32_t>(v));
            }
          }
        } else {
          uint32_t code_of[4] = {~0u, ~0u, ~0u, ~0u};
          for (uint64_t r = 0; r < hdr.row_count; ++r) {
            uint64_t v = 0;
            UNILOG_RETURN_NOT_OK(col.GetVarint64(&v));
            if (v > 3) return Status::Corruption("rcfile: bad initiator");
            if (!g.sel[r]) continue;
            if (code_of[v] == ~0u) {
              code_of[v] = static_cast<uint32_t>(out->init_values.size());
              out->init_values.push_back(
                  static_cast<events::EventInitiator>(v));
            }
            out->init_codes.push_back(code_of[v]);
          }
        }
        if (!col.AtEnd()) return Status::Corruption("rcfile: column overrun");
        dict->reserve(out->init_values.size());
        for (events::EventInitiator init : out->init_values) {
          dict->emplace_back(events::EventInitiatorName(init));
        }
        out->init_dict = std::move(dict);
        break;
      }
      case EventColumn::kUserId: {
        if (g.uid_vals.empty()) {
          UNILOG_RETURN_NOT_OK(g.blobs.Ensure(column, stats));
          UNILOG_RETURN_NOT_OK(DecodeInt64Column(
              g.blobs.decompressed[c], hdr.row_count, &g.uid_vals));
        }
        out->user_ids.reserve(g.selected);
        for (uint64_t r = 0; r < hdr.row_count; ++r) {
          if (g.sel[r]) out->user_ids.push_back(g.uid_vals[r]);
        }
        break;
      }
      case EventColumn::kTimestamp: {
        if (g.ts_vals.empty()) {
          UNILOG_RETURN_NOT_OK(g.blobs.Ensure(column, stats));
          UNILOG_RETURN_NOT_OK(DecodeInt64Column(
              g.blobs.decompressed[c], hdr.row_count, &g.ts_vals));
        }
        out->timestamps.reserve(g.selected);
        for (uint64_t r = 0; r < hdr.row_count; ++r) {
          if (g.sel[r]) out->timestamps.push_back(g.ts_vals[r]);
        }
        break;
      }
      case EventColumn::kSessionId:
      case EventColumn::kIp: {
        UNILOG_RETURN_NOT_OK(g.blobs.Ensure(column, stats));
        Decoder col(g.blobs.decompressed[c]);
        std::vector<std::string>& dst = column == EventColumn::kSessionId
                                            ? out->session_ids
                                            : out->ips;
        dst.reserve(g.selected);
        for (uint64_t r = 0; r < hdr.row_count; ++r) {
          std::string_view sv;
          UNILOG_RETURN_NOT_OK(col.GetLengthPrefixed(&sv));
          if (g.sel[r]) dst.emplace_back(sv);
        }
        if (!col.AtEnd()) return Status::Corruption("rcfile: column overrun");
        break;
      }
      case EventColumn::kDetails: {
        UNILOG_RETURN_NOT_OK(g.blobs.Ensure(column, stats));
        Decoder col(g.blobs.decompressed[c]);
        out->details.reserve(g.selected);
        for (uint64_t r = 0; r < hdr.row_count; ++r) {
          uint64_t n = 0;
          UNILOG_RETURN_NOT_OK(col.GetVarint64(&n));
          // Each pair spends at least two length-prefix bytes.
          if (n > col.remaining() / 2) {
            return Status::Corruption("rcfile: bad details count");
          }
          std::vector<std::pair<std::string, std::string>> pairs;
          if (g.sel[r]) pairs.reserve(n);
          for (uint64_t i = 0; i < n; ++i) {
            std::string_view k, v;
            UNILOG_RETURN_NOT_OK(col.GetLengthPrefixed(&k));
            UNILOG_RETURN_NOT_OK(col.GetLengthPrefixed(&v));
            if (g.sel[r]) pairs.emplace_back(k, v);
          }
          if (g.sel[r]) out->details.push_back(std::move(pairs));
        }
        if (!col.AtEnd()) return Status::Corruption("rcfile: column overrun");
        break;
      }
    }
  }
  return Status::OK();
}

/// Appends a scanned group's rows to `out` as events — the event view of
/// ScanOneGroupColumnar's arrays. Fields outside `mask` keep defaults.
void AppendEvents(RcFileReader::ColumnarGroup* g, ColumnMask mask,
                  std::vector<events::ClientEvent>* out) {
  auto has = [mask](EventColumn c) { return (mask & ColumnBit(c)) != 0; };
  const size_t base = out->size();
  out->resize(base + g->rows);
  for (size_t i = 0; i < g->rows; ++i) {
    events::ClientEvent& ev = (*out)[base + i];
    if (has(EventColumn::kInitiator)) {
      ev.initiator = g->init_values[g->init_codes[i]];
    }
    if (has(EventColumn::kEventName)) {
      if (g->name_dict != nullptr) {
        ev.event_name = (*g->name_dict)[g->name_codes[i]];
      } else {
        ev.event_name = std::move(g->name_strs[i]);
      }
    }
    if (has(EventColumn::kUserId)) ev.user_id = g->user_ids[i];
    if (has(EventColumn::kSessionId)) {
      ev.session_id = std::move(g->session_ids[i]);
    }
    if (has(EventColumn::kIp)) ev.ip = std::move(g->ips[i]);
    if (has(EventColumn::kTimestamp)) ev.timestamp = g->timestamps[i];
    if (has(EventColumn::kDetails)) ev.details = std::move(g->details[i]);
  }
}

Status CheckColumns(const ScanSpec& spec) {
  if ((spec.columns & ~kAllColumns) != 0) {
    return Status::InvalidArgument("rcfile: column mask has unknown bits");
  }
  return Status::OK();
}

}  // namespace

void ScanStats::MergeFrom(const ScanStats& other) {
  groups_total += other.groups_total;
  groups_scanned += other.groups_scanned;
  groups_skipped += other.groups_skipped;
  bytes_decompressed += other.bytes_decompressed;
  rows_scanned += other.rows_scanned;
  rows_pruned += other.rows_pruned;
  rows_returned += other.rows_returned;
  dict_domain_rows_pruned += other.dict_domain_rows_pruned;
}

void ReportScanStats(const ScanStats& stats, obs::MetricsRegistry* metrics,
                     const std::string& source) {
  if (metrics == nullptr) return;
  obs::Labels labels{{"source", source}};
  metrics->GetCounter("columnar.groups_scanned", labels)
      ->Increment(stats.groups_scanned);
  metrics->GetCounter("columnar.groups_skipped", labels)
      ->Increment(stats.groups_skipped);
  metrics->GetCounter("columnar.bytes_decompressed", labels)
      ->Increment(stats.bytes_decompressed);
  metrics->GetCounter("columnar.rows_pruned", labels)
      ->Increment(stats.rows_pruned);
  metrics->GetCounter("columnar.rows_returned", labels)
      ->Increment(stats.rows_returned);
  metrics->GetCounter("columnar.dict_domain_rows_pruned", labels)
      ->Increment(stats.dict_domain_rows_pruned);
}

RowMatcher::RowMatcher(const ScanSpec& spec) : spec_(&spec) {
  patterns_.reserve(spec.event_name_patterns.size());
  for (const auto& p : spec.event_name_patterns) {
    patterns_.emplace_back(p);
  }
}

bool RowMatcher::Matches(const events::ClientEvent& event) const {
  if (spec_->min_timestamp && event.timestamp < *spec_->min_timestamp) {
    return false;
  }
  if (spec_->max_timestamp && event.timestamp > *spec_->max_timestamp) {
    return false;
  }
  if (spec_->user_ids && !spec_->user_ids->count(event.user_id)) {
    return false;
  }
  return NameMatches(event.event_name);
}

bool RowMatcher::NameMatches(std::string_view name) const {
  if (spec_->event_names && !spec_->event_names->count(std::string(name))) {
    return false;
  }
  for (const auto& pattern : patterns_) {
    if (!pattern.Matches(name)) return false;
  }
  return true;
}

bool IsRcFile(std::string_view data) {
  return data.size() >= kRcFileMagic.size() &&
         data.substr(0, kRcFileMagic.size()) == kRcFileMagic;
}

void RowGroupEncoder::Append(const events::ClientEventView& row,
                             std::span<const events::DetailView> details) {
  if (rows_ == 0) {
    min_ts_ = max_ts_ = row.timestamp;
    min_uid_ = max_uid_ = row.user_id;
  } else {
    min_ts_ = std::min<int64_t>(min_ts_, row.timestamp);
    max_ts_ = std::max<int64_t>(max_ts_, row.timestamp);
    min_uid_ = std::min(min_uid_, row.user_id);
    max_uid_ = std::max(max_uid_, row.user_id);
  }
  ++rows_;
  auto column = [this](EventColumn c) -> std::string* {
    return &columns_[static_cast<int>(c)];
  };
  const auto init = static_cast<uint32_t>(row.initiator);
  if (init_code_[init] == 0) {
    init_code_[init] = ++init_count_;  // stored as code + 1
    PutVarint32(&init_entries_, init);
  }
  PutVarint32(column(EventColumn::kInitiator), init_code_[init] - 1);
  auto it = name_codes_.find(row.event_name);
  if (it == name_codes_.end()) {
    it = name_codes_.emplace(std::string(row.event_name), NameCode{}).first;
  }
  if (it->second.group != group_) {
    it->second = NameCode{group_, name_count_++};
    PutLengthPrefixed(&name_entries_, row.event_name);
  }
  PutVarint32(column(EventColumn::kEventName), it->second.code);
  PutSignedVarint64(column(EventColumn::kUserId), row.user_id);
  PutLengthPrefixed(column(EventColumn::kSessionId), row.session_id);
  PutLengthPrefixed(column(EventColumn::kIp), row.ip);
  PutSignedVarint64(column(EventColumn::kTimestamp), row.timestamp);
  std::string* col = column(EventColumn::kDetails);
  PutVarint64(col, details.size());
  for (const auto& [k, v] : details) {
    PutLengthPrefixed(col, k);
    PutLengthPrefixed(col, v);
  }
}

void RowGroupEncoder::FinishGroup(std::string* out) {
  if (rows_ == 0) return;
  // v2 group = header | header checksum | blob checksum | blobs. The
  // header and blob sections are built in scratch buffers so each can be
  // checksummed as the exact byte range the reader will re-hash.
  blobs_.clear();
  for (std::string& column : columns_) {
    Lz::Pooled().CompressTo(column, &compressed_);
    PutLengthPrefixed(&blobs_, compressed_);
    column.clear();
  }
  header_.clear();
  PutVarint64(&header_, rows_);
  PutSignedVarint64(&header_, min_ts_);
  PutSignedVarint64(&header_, max_ts_);
  PutSignedVarint64(&header_, min_uid_);
  PutSignedVarint64(&header_, max_uid_);
  PutVarint64(&header_, name_count_);
  header_.append(name_entries_);
  PutVarint64(&header_, init_count_);
  header_.append(init_entries_);
  out->append(header_);
  PutVarint32(out, Fnv1a(header_));
  PutVarint32(out, Fnv1a(blobs_));
  out->append(blobs_);
  rows_ = 0;
  ++group_;
  name_count_ = 0;
  name_entries_.clear();
  // Names seen once stay cached across groups; a file with unbounded
  // distinct names drops the cache rather than growing it forever.
  if (name_codes_.size() > 4096) name_codes_.clear();
  std::fill(std::begin(init_code_), std::end(init_code_), 0u);
  init_count_ = 0;
  init_entries_.clear();
}

RcFileWriter::RcFileWriter(std::string* out, size_t rows_per_group)
    : out_(out),
      rows_per_group_(
          std::clamp<size_t>(rows_per_group, 1, kMaxRowsPerGroup)) {}

Status RcFileWriter::Add(const events::ClientEvent& event) {
  if (finished_) {
    return Status::FailedPrecondition(
        "rcfile: Add() after Finish() would corrupt the file tail");
  }
  events::ClientEventView row;
  row.initiator = event.initiator;
  row.event_name = event.event_name;
  row.user_id = event.user_id;
  row.session_id = event.session_id;
  row.ip = event.ip;
  row.timestamp = event.timestamp;
  details_.clear();
  for (const auto& [k, v] : event.details) details_.emplace_back(k, v);
  encoder_.Append(row, details_);
  ++rows_written_;
  if (encoder_.rows() >= rows_per_group_) FlushGroup();
  return Status::OK();
}

void RcFileWriter::FlushGroup() {
  if (encoder_.rows() == 0) return;
  if (!wrote_magic_) {
    out_->append(kRcFileMagic);
    wrote_magic_ = true;
  }
  encoder_.FinishGroup(out_);
}

Status RcFileWriter::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  FlushGroup();
  return Status::OK();
}

RcFileReader::RcFileReader(std::string_view data) : data_(data) {
  if (IsRcFile(data)) {
    version_ = 2;
    body_offset_ = kRcFileMagic.size();
  }
}

Status RcFileReader::ReadAll(ColumnMask mask,
                             std::vector<events::ClientEvent>* out) const {
  ScanSpec spec;
  spec.columns = mask;
  return Scan(spec, out, nullptr);
}

Status RcFileReader::Scan(const ScanSpec& spec,
                          std::vector<events::ClientEvent>* out,
                          ScanStats* stats) const {
  UNILOG_RETURN_NOT_OK(CheckColumns(spec));
  UNILOG_ASSIGN_OR_RETURN(std::vector<RowGroupHandle> groups, IndexGroups());
  for (const RowGroupHandle& group : groups) {
    UNILOG_RETURN_NOT_OK(ScanGroup(group, spec, out, stats));
  }
  return Status::OK();
}

Result<std::vector<RcFileReader::RowGroupHandle>> RcFileReader::IndexGroups()
    const {
  std::vector<RowGroupHandle> groups;
  Decoder dec(data_);
  UNILOG_RETURN_NOT_OK(dec.Skip(body_offset_));
  while (!dec.AtEnd()) {
    RowGroupHandle handle;
    handle.offset = dec.position();
    GroupHeader hdr;
    UNILOG_RETURN_NOT_OK(ReadGroupHeader(&dec, version_, &hdr));
    handle.row_count = hdr.row_count;
    UNILOG_RETURN_NOT_OK(SkipBlobs(&dec));
    handle.byte_length = dec.position() - handle.offset;
    groups.push_back(handle);
  }
  return groups;
}

Status RcFileReader::ScanGroup(const RowGroupHandle& group,
                               const ScanSpec& spec,
                               std::vector<events::ClientEvent>* out,
                               ScanStats* stats) const {
  ColumnarGroup g;
  UNILOG_RETURN_NOT_OK(ScanGroupColumnar(group, spec, &g, stats));
  AppendEvents(&g, spec.columns, out);
  return Status::OK();
}

Status RcFileReader::ScanGroupColumnar(const RowGroupHandle& group,
                                       const ScanSpec& spec,
                                       ColumnarGroup* out,
                                       ScanStats* stats) const {
  UNILOG_RETURN_NOT_OK(CheckColumns(spec));
  RowMatcher matcher(spec);
  ScanStats local;
  Decoder dec(data_);
  UNILOG_RETURN_NOT_OK(dec.Skip(group.offset));
  UNILOG_RETURN_NOT_OK(
      ScanOneGroupColumnar(&dec, version_, spec, matcher, out, &local));
  if (stats != nullptr) stats->MergeFrom(local);
  return Status::OK();
}

Result<std::vector<RcFileReader::RowGroupStats>>
RcFileReader::CollectGroupStats() const {
  std::vector<RowGroupStats> out;
  Decoder dec(data_);
  UNILOG_RETURN_NOT_OK(dec.Skip(body_offset_));
  while (!dec.AtEnd()) {
    GroupHeader hdr;
    UNILOG_RETURN_NOT_OK(ReadGroupHeader(&dec, version_, &hdr));
    RowGroupStats st;
    st.row_count = hdr.row_count;
    if (version_ >= 2) {
      st.has_zone_map = true;
      st.min_timestamp = hdr.min_ts;
      st.max_timestamp = hdr.max_ts;
      st.min_user_id = hdr.min_uid;
      st.max_user_id = hdr.max_uid;
      st.event_names.reserve(hdr.name_dict.size());
      for (std::string_view sv : hdr.name_dict) st.event_names.emplace_back(sv);
      st.initiators.reserve(hdr.init_dict.size());
      for (events::EventInitiator init : hdr.init_dict) {
        st.initiators.emplace_back(events::EventInitiatorName(init));
      }
    }
    for (int c = 0; c < kEventColumns; ++c) {
      std::string_view blob;
      UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&blob));
      st.blob_bytes += blob.size();
    }
    out.push_back(std::move(st));
  }
  return out;
}

Result<uint64_t> RcFileReader::ContentFingerprint() const {
  if (version_ < 2) {
    return Status::FailedPrecondition(
        "rcfile: v1 files carry no embedded checksums to fingerprint");
  }
  // FNV-1a over (row_count, header checksum, blob checksum) per group, in
  // file order. Header-only: SkipBlobs never touches compressed data.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<unsigned char>(v >> (i * 8));
      h *= 1099511628211ull;
    }
  };
  Decoder dec(data_);
  UNILOG_RETURN_NOT_OK(dec.Skip(body_offset_));
  while (!dec.AtEnd()) {
    GroupHeader hdr;
    UNILOG_RETURN_NOT_OK(ReadGroupHeader(&dec, version_, &hdr));
    UNILOG_RETURN_NOT_OK(SkipBlobs(&dec));
    mix(hdr.row_count);
    mix(hdr.header_checksum);
    mix(hdr.blobs_checksum);
  }
  return h;
}

}  // namespace unilog::columnar
