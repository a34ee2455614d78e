#include "columnar/rcfile.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>

#include "common/coding.h"
#include "common/fnv.h"
#include "events/event_name.h"
#include "obs/metrics.h"

namespace unilog::columnar {

namespace {

/// The group checksum over a byte range. Zone maps and dictionaries live
/// in the header, where a flipped byte would otherwise read back as
/// silently different data. It is the FNV-1a step over little-endian
/// 32-bit words, then over a 1-3 byte tail one byte at a time. Every step
/// is a bijection of the state, so any one changed byte or word changes
/// the checksum.
uint32_t GroupChecksum(std::string_view data) {
  constexpr uint32_t kPrime = 16777619u;
  uint32_t h = 2166136261u;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  for (; n >= 4; p += 4, n -= 4) {
    const uint32_t w = uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                       uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
    h = (h ^ w) * kPrime;
  }
  for (; n > 0; ++p, --n) h = (h ^ *p) * kPrime;
  return h;
}

/// An empty body is a file of no groups; any other body must carry the
/// RCF3 magic.
Status CheckMagic(std::string_view data) {
  if (data.empty() || IsRcFile(data)) return Status::OK();
  return Status::Corruption("rcfile: body without the RCF3 magic");
}

/// A parsed row-group header. The zone map and the dictionaries live in
/// the header, so group skipping decodes no column; the dictionary entry
/// views point into the file body and stay valid for the reader's
/// lifetime.
struct GroupHeader {
  uint64_t row_count = 0;
  int64_t min_ts = 0, max_ts = 0;
  int64_t min_uid = 0, max_uid = 0;
  std::vector<std::string_view> name_dict;
  std::vector<events::EventInitiator> init_dict;
  /// Checksum over the group's blob section, verified only when the
  /// group is actually scanned — a zone-map skip stays header-only.
  uint32_t blobs_checksum = 0;
  /// The stored header checksum (already verified against the header
  /// bytes by ReadGroupHeader); kept so ContentFingerprint can fold the
  /// embedded checksums into a whole-file digest without re-hashing.
  uint32_t header_checksum = 0;
};

Status ReadGroupHeader(Decoder* dec, GroupHeader* hdr) {
  const size_t header_begin = dec->position();
  UNILOG_RETURN_NOT_OK(dec->GetVarint64(&hdr->row_count));
  if (hdr->row_count == 0 || hdr->row_count > kMaxRowsPerGroup) {
    return Status::Corruption("rcfile: implausible row-group size");
  }
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
  // The header (zone map + dictionaries) is checksummed: a flipped
  // dictionary byte must fail loudly, not read back as a different event
  // name.
  const size_t header_end = dec->position();
  uint32_t expected = 0;
  UNILOG_RETURN_NOT_OK(dec->GetVarint32(&expected));
  if (GroupChecksum(dec->data().substr(header_begin,
                                       header_end - header_begin)) !=
      expected) {
    return Status::Corruption("rcfile: row-group header checksum mismatch");
  }
  hdr->header_checksum = expected;
  UNILOG_RETURN_NOT_OK(dec->GetVarint32(&hdr->blobs_checksum));
  return Status::OK();
}

/// Advances past a group's column blobs without decoding any, adding
/// their stored sizes to *bytes when it is not null.
Status SkipBlobs(Decoder* dec, uint64_t* bytes = nullptr) {
  for (int c = 0; c < kEventColumns; ++c) {
    std::string_view blob;
    UNILOG_RETURN_NOT_OK(dec->GetLengthPrefixed(&blob));
    if (bytes != nullptr) *bytes += blob.size();
  }
  return Status::OK();
}

/// Walks every group of `data` in file order, headers only, calling
/// fn(hdr, offset, byte_length, blob_bytes) for each.
template <typename Fn>
Status WalkGroups(std::string_view data, Fn fn) {
  UNILOG_RETURN_NOT_OK(CheckMagic(data));
  Decoder dec(data);
  UNILOG_RETURN_NOT_OK(dec.Skip(data.empty() ? 0 : kRcFileMagic.size()));
  while (!dec.AtEnd()) {
    const size_t offset = dec.position();
    GroupHeader hdr;
    UNILOG_RETURN_NOT_OK(ReadGroupHeader(&dec, &hdr));
    uint64_t blob_bytes = 0;
    UNILOG_RETURN_NOT_OK(SkipBlobs(&dec, &blob_bytes));
    fn(hdr, offset, dec.position() - offset, blob_bytes);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Column encodings (the layout is described in rcfile.h)

/// Bits that hold every value in [0, max]: 0 when max is 0.
int BitWidth(uint64_t max) { return static_cast<int>(std::bit_width(max)); }

/// Bytes of a run of `n` values packed at `width` bits.
uint64_t PackedBytes(uint64_t n, int width) {
  return (n * static_cast<uint64_t>(width) + 7) / 8;
}

/// Appends a packed run: the width byte, then value(i) for i in [0, n),
/// each below 2^width, packed LSB-first into PackedBytes(n, width) bytes.
template <typename Value>
void AppendPackedRun(std::string* out, size_t n, int width, Value value) {
  out->push_back(static_cast<char>(width));
  const size_t begin = out->size();
  out->resize(begin + PackedBytes(n, width));
  if (width == 0) return;
  char* p = out->data() + begin;
  uint64_t acc = 0;
  int bits = 0;  // pending bits in acc, always < 64
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = value(i);
    acc |= v << bits;
    if (bits + width < 64) {
      bits += width;
      continue;
    }
    for (int k = 0; k < 8; ++k) *p++ = static_cast<char>(acc >> (8 * k));
    const int used = 64 - bits;  // bits of v already in the flushed word
    acc = used == 64 ? 0 : v >> used;
    bits += width - 64;
  }
  for (; bits > 0; bits -= 8) {
    *p++ = static_cast<char>(acc);
    acc >>= 8;
  }
}

/// A word-at-a-time hash for dictionary probing; never stored.
uint64_t HashBytes(std::string_view s, uint64_t h) {
  const char* p = s.data();
  size_t n = s.size();
  h ^= n * 0x9e3779b97f4a7c15ull;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t w = 0;
    std::memcpy(&w, p, 8);
    h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 31;
  }
  uint64_t w = 0;
  if (n > 0) std::memcpy(&w, p, n);
  h ^= w;
  // Finalize so the low bits the table masks with depend on every byte.
  h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdull;
  h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ull;
  return h ^ (h >> 33);
}

uint64_t LoadLittleEndian64(const unsigned char* p) {
  uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 8);
  } else {
    for (int k = 0; k < 8; ++k) v |= uint64_t{p[k]} << (8 * k);
  }
  return v;
}

/// A stored packed run, read by index.
class PackedRun {
 public:
  /// Reads a run of `n` values at the decoder: a width of at most 64 and
  /// exactly PackedBytes(n, width) bytes behind it.
  Status Read(Decoder* dec, uint64_t n) {
    std::string_view width;
    UNILOG_RETURN_NOT_OK(dec->GetBytes(1, &width));
    width_ = static_cast<unsigned char>(width[0]);
    if (width_ > 64) return Status::Corruption("rcfile: bit width above 64");
    if (width_ != 0 && n > dec->remaining() * 8 / width_) {
      return Status::Corruption("rcfile: packed run past its column");
    }
    std::string_view bytes;
    UNILOG_RETURN_NOT_OK(dec->GetBytes(PackedBytes(n, width_), &bytes));
    data_ = reinterpret_cast<const unsigned char*>(bytes.data());
    size_ = bytes.size();
    mask_ = width_ == 64 ? ~uint64_t{0} : (uint64_t{1} << width_) - 1;
    return Status::OK();
  }

  int width() const { return width_; }

  /// Value i; i must be below the run's length.
  uint64_t operator[](uint64_t i) const {
    if (width_ == 0) return 0;
    const uint64_t bit = i * static_cast<uint64_t>(width_);
    const size_t byte = bit >> 3;
    const int shift = static_cast<int>(bit & 7);
    uint64_t v = 0;
    if (byte + 8 <= size_) {
      v = LoadLittleEndian64(data_ + byte) >> shift;
      // The run's exact length puts a value's ninth byte inside it.
      if (shift + width_ > 64) v |= uint64_t{data_[byte + 8]} << (64 - shift);
    } else {
      for (size_t k = 0; byte + k < size_; ++k) {
        v |= uint64_t{data_[byte + k]} << (8 * k);
      }
      v >>= shift;
    }
    return v & mask_;
  }

 private:
  const unsigned char* data_ = nullptr;
  size_t size_ = 0;
  int width_ = 0;
  uint64_t mask_ = 0;
};

/// Reads a packed run of `n` codes into a dictionary of `entries` values,
/// each checked to be below `entries`.
Status ReadCodes(Decoder* dec, uint64_t n, uint64_t entries,
                 std::vector<uint32_t>* codes) {
  PackedRun run;
  UNILOG_RETURN_NOT_OK(run.Read(dec, n));
  codes->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t code = run[i];
    if (code >= entries) {
      return Status::Corruption("rcfile: code past its page");
    }
    (*codes)[i] = static_cast<uint32_t>(code);
  }
  return Status::OK();
}

/// Reads a page's entry count, at most `max_entries` and at most one entry
/// per remaining byte (every entry spends a length byte or more).
Status ReadPageCount(Decoder* dec, uint64_t max_entries, uint64_t* count) {
  UNILOG_RETURN_NOT_OK(dec->GetVarint64(count));
  if (*count > max_entries || *count > dec->remaining()) {
    return Status::Corruption("rcfile: page larger than its column");
  }
  return Status::OK();
}

Status ColumnOverrun(const Decoder& dec) {
  if (!dec.AtEnd()) return Status::Corruption("rcfile: column overrun");
  return Status::OK();
}

/// A group's column blobs. Use(c) returns column c's stored bytes and
/// counts them into bytes_decompressed the first time the column is used.
struct GroupBlobs {
  std::string_view stored[kEventColumns];
  bool used[kEventColumns] = {};

  std::string_view Use(EventColumn column, ScanStats* stats) {
    const int c = static_cast<int>(column);
    if (!used[c]) stats->bytes_decompressed += stored[c].size();
    used[c] = true;
    return stored[c];
  }
};

// ---------------------------------------------------------------------------
// Column decoders: every row of one column.

/// An initiator or event-name column: a packed run of codes into the
/// header dictionary of `entries` values.
Status DecodeCodes(std::string_view blob, uint64_t row_count,
                   uint64_t entries, std::vector<uint32_t>* codes) {
  Decoder dec(blob);
  UNILOG_RETURN_NOT_OK(ReadCodes(&dec, row_count, entries, codes));
  return ColumnOverrun(dec);
}

Status DecodeUserIds(std::string_view blob, const GroupHeader& hdr,
                     std::vector<int64_t>* values) {
  Decoder dec(blob);
  PackedRun run;
  UNILOG_RETURN_NOT_OK(run.Read(&dec, hdr.row_count));
  UNILOG_RETURN_NOT_OK(ColumnOverrun(dec));
  values->resize(hdr.row_count);
  const auto base = static_cast<uint64_t>(hdr.min_uid);
  for (uint64_t r = 0; r < hdr.row_count; ++r) {
    (*values)[r] = static_cast<int64_t>(base + run[r]);
  }
  return Status::OK();
}

Status DecodeTimestamps(std::string_view blob, const GroupHeader& hdr,
                        std::vector<int64_t>* values) {
  Decoder dec(blob);
  values->resize(hdr.row_count);
  auto prev = static_cast<uint64_t>(hdr.min_ts);
  for (auto& v : *values) {
    int64_t delta = 0;
    UNILOG_RETURN_NOT_OK(dec.GetSignedVarint64(&delta));
    prev += static_cast<uint64_t>(delta);
    v = static_cast<int64_t>(prev);
  }
  return ColumnOverrun(dec);
}

/// A session-id or ip column as one view per row into the column bytes.
Status DecodeStrings(std::string_view blob, uint64_t row_count,
                     std::vector<std::string_view>* values) {
  Decoder dec(blob);
  values->resize(row_count);
  uint64_t entries = 0;
  UNILOG_RETURN_NOT_OK(ReadPageCount(&dec, row_count, &entries));
  std::vector<std::string_view> page(entries);
  for (auto& entry : page) UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&entry));
  std::vector<uint32_t> codes;
  UNILOG_RETURN_NOT_OK(ReadCodes(&dec, row_count, entries, &codes));
  for (uint64_t r = 0; r < row_count; ++r) (*values)[r] = page[codes[r]];
  return ColumnOverrun(dec);
}

using Details = std::vector<std::pair<std::string, std::string>>;

/// The details column; only rows with sel[r] set are materialized, one
/// Details per selected row, but every row is validated.
Status DecodeDetails(std::string_view blob, uint64_t row_count,
                     const std::vector<uint8_t>& sel, size_t selected,
                     std::vector<Details>* out) {
  Decoder dec(blob);
  out->reserve(out->size() + selected);
  uint64_t entries = 0;  // each entry spends two length bytes or more
  UNILOG_RETURN_NOT_OK(ReadPageCount(&dec, dec.remaining() / 2, &entries));
  std::vector<events::DetailView> page(entries);
  for (auto& [k, v] : page) {
    UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&k));
    UNILOG_RETURN_NOT_OK(dec.GetLengthPrefixed(&v));
  }
  PackedRun counts, codes;
  UNILOG_RETURN_NOT_OK(counts.Read(&dec, row_count));
  uint64_t code_count = 0;
  UNILOG_RETURN_NOT_OK(dec.GetVarint64(&code_count));
  UNILOG_RETURN_NOT_OK(codes.Read(&dec, code_count));
  // A zero-width run would let a claimed count stand for any number of
  // pairs; a width of one bit or more bounds them by the run's bytes.
  if (codes.width() == 0 && code_count > 0) {
    return Status::Corruption("rcfile: details codes without a width");
  }
  UNILOG_RETURN_NOT_OK(ColumnOverrun(dec));
  uint64_t next = 0;
  for (uint64_t r = 0; r < row_count; ++r) {
    const uint64_t n = counts[r];
    if (n > code_count - next) {
      return Status::Corruption("rcfile: details count past the codes left");
    }
    Details pairs;
    if (sel[r]) pairs.reserve(n);
    for (uint64_t end = next + n; next < end; ++next) {
      const uint64_t code = codes[next];
      if (code >= entries) {
        return Status::Corruption("rcfile: code past its page");
      }
      if (sel[r]) pairs.emplace_back(page[code].first, page[code].second);
    }
    if (sel[r]) out->push_back(std::move(pairs));
  }
  if (next != code_count) {
    return Status::Corruption("rcfile: details codes left over");
  }
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

Status SelectGroupRows(Decoder* dec, const ScanSpec& spec,
                       const RowMatcher& matcher, GroupSelection* g,
                       ScanStats* stats) {
  GroupHeader& hdr = g->hdr;
  UNILOG_RETURN_NOT_OK(ReadGroupHeader(dec, &hdr));
  ++stats->groups_total;

  // Group-level skips, all header-only.
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
  std::vector<uint8_t> name_verdicts;
  if (!skip && spec.has_name_predicate()) {
    name_verdicts = matcher.NameVerdicts(hdr.name_dict);
    if (std::find(name_verdicts.begin(), name_verdicts.end(), 1) ==
        name_verdicts.end()) {
      skip = dict_skip = true;
    }
  }
  if (skip) {
    UNILOG_RETURN_NOT_OK(SkipBlobs(dec));
    ++stats->groups_skipped;
    stats->rows_pruned += hdr.row_count;
    if (dict_skip) stats->dict_domain_rows_pruned += hdr.row_count;
    g->skipped = true;
    return Status::OK();
  }

  GroupBlobs& blobs = g->blobs;
  const size_t blobs_begin = dec->position();
  for (int c = 0; c < kEventColumns; ++c) {
    UNILOG_RETURN_NOT_OK(dec->GetLengthPrefixed(&blobs.stored[c]));
  }
  if (GroupChecksum(dec->data().substr(
          blobs_begin, dec->position() - blobs_begin)) != hdr.blobs_checksum) {
    return Status::Corruption("rcfile: row-group blob checksum mismatch");
  }
  // The timestamp column spends a varint per row, so a group whose column
  // cannot hold its claimed row count is corrupt. This runs before
  // anything is sized from that count.
  if (blobs.stored[static_cast<int>(EventColumn::kTimestamp)].size() <
      hdr.row_count) {
    return Status::Corruption("rcfile: column shorter than its row count");
  }
  ++stats->groups_scanned;
  stats->rows_scanned += hdr.row_count;

  // Row selection on encoded / cheap columns, before materialization.
  if (spec.has_name_predicate()) {
    UNILOG_RETURN_NOT_OK(
        DecodeCodes(blobs.Use(EventColumn::kEventName, stats), hdr.row_count,
                    hdr.name_dict.size(), &g->name_ids));
  }
  if (spec.min_timestamp.has_value() || spec.max_timestamp.has_value()) {
    UNILOG_RETURN_NOT_OK(DecodeTimestamps(
        blobs.Use(EventColumn::kTimestamp, stats), hdr, &g->ts_vals));
  }
  if (spec.user_ids.has_value()) {
    UNILOG_RETURN_NOT_OK(DecodeUserIds(blobs.Use(EventColumn::kUserId, stats),
                                       hdr, &g->uid_vals));
  }
  std::vector<uint8_t>& sel = g->sel;
  sel.assign(hdr.row_count, 1);
  stats->dict_domain_rows_pruned += SelectRows(
      spec, {g->name_ids, name_verdicts, g->ts_vals, g->uid_vals}, sel);

  size_t selected = 0;
  for (uint64_t r = 0; r < hdr.row_count; ++r) selected += sel[r];
  g->selected = selected;
  stats->rows_pruned += hdr.row_count - selected;
  stats->rows_returned += selected;
  return Status::OK();
}

/// Appends values[r] for every selected row r.
template <typename T, typename U>
void AppendSelected(const std::vector<uint8_t>& sel,
                    const std::vector<T>& values, size_t selected,
                    std::vector<U>* out) {
  out->reserve(out->size() + selected);
  for (size_t r = 0; r < values.size(); ++r) {
    if (sel[r]) out->emplace_back(values[r]);
  }
}

/// Scans one group at the decoder's position, leaving the decoder past it:
/// SelectGroupRows, then the selected rows' masked columns land in typed
/// arrays, the dictionary-encoded columns staying encoded (codes + a
/// materialized-once dictionary). The only code that decodes column blobs.
Status ScanOneGroupColumnar(Decoder* dec, const ScanSpec& spec,
                            const RowMatcher& matcher,
                            RcFileReader::ColumnarGroup* out,
                            ScanStats* stats) {
  GroupSelection g;
  UNILOG_RETURN_NOT_OK(SelectGroupRows(dec, spec, matcher, &g, stats));
  out->rows = g.selected;
  if (g.skipped || g.selected == 0) return Status::OK();
  const GroupHeader& hdr = g.hdr;

  for (int c = 0; c < kEventColumns; ++c) {
    if ((spec.columns & (1u << c)) == 0) continue;
    auto column = static_cast<EventColumn>(c);
    std::string_view blob = g.blobs.Use(column, stats);
    switch (column) {
      case EventColumn::kEventName: {
        if (g.name_ids.empty()) {
          UNILOG_RETURN_NOT_OK(DecodeCodes(blob, hdr.row_count,
                                           hdr.name_dict.size(), &g.name_ids));
        }
        auto dict = std::make_shared<std::vector<std::string>>();
        dict->reserve(hdr.name_dict.size());
        for (std::string_view sv : hdr.name_dict) dict->emplace_back(sv);
        AppendSelected(g.sel, g.name_ids, g.selected, &out->name_codes);
        out->name_dict = std::move(dict);
        break;
      }
      case EventColumn::kInitiator: {
        std::vector<uint32_t> codes;
        UNILOG_RETURN_NOT_OK(
            DecodeCodes(blob, hdr.row_count, hdr.init_dict.size(), &codes));
        AppendSelected(g.sel, codes, g.selected, &out->init_codes);
        out->init_values = hdr.init_dict;
        auto dict = std::make_shared<std::vector<std::string>>();
        dict->reserve(out->init_values.size());
        for (events::EventInitiator init : out->init_values) {
          dict->emplace_back(events::EventInitiatorName(init));
        }
        out->init_dict = std::move(dict);
        break;
      }
      case EventColumn::kUserId: {
        if (g.uid_vals.empty()) {
          UNILOG_RETURN_NOT_OK(DecodeUserIds(blob, hdr, &g.uid_vals));
        }
        AppendSelected(g.sel, g.uid_vals, g.selected, &out->user_ids);
        break;
      }
      case EventColumn::kTimestamp: {
        if (g.ts_vals.empty()) {
          UNILOG_RETURN_NOT_OK(DecodeTimestamps(blob, hdr, &g.ts_vals));
        }
        AppendSelected(g.sel, g.ts_vals, g.selected, &out->timestamps);
        break;
      }
      case EventColumn::kSessionId:
      case EventColumn::kIp: {
        std::vector<std::string_view> values;
        UNILOG_RETURN_NOT_OK(DecodeStrings(blob, hdr.row_count, &values));
        AppendSelected(g.sel, values, g.selected,
                       column == EventColumn::kSessionId ? &out->session_ids
                                                         : &out->ips);
        break;
      }
      case EventColumn::kDetails:
        UNILOG_RETURN_NOT_OK(DecodeDetails(blob, hdr.row_count, g.sel,
                                           g.selected, &out->details));
        break;
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
      ev.event_name = (*g->name_dict)[g->name_codes[i]];
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

uint64_t SelectRows(const ScanSpec& spec, const PredicateColumns& columns,
                    std::span<uint8_t> keep) {
  uint64_t name_cut = 0;
  if (spec.has_name_predicate()) {
    for (size_t r = 0; r < keep.size(); ++r) {
      if (columns.name_verdicts[columns.name_codes[r]] == 0) {
        keep[r] = 0;
        ++name_cut;
      }
    }
  }
  if (spec.min_timestamp.has_value() || spec.max_timestamp.has_value()) {
    const int64_t lo = spec.min_timestamp.value_or(INT64_MIN);
    const int64_t hi = spec.max_timestamp.value_or(INT64_MAX);
    for (size_t r = 0; r < keep.size(); ++r) {
      if (columns.timestamps[r] < lo || columns.timestamps[r] > hi) keep[r] = 0;
    }
  }
  if (spec.user_ids.has_value()) {
    for (size_t r = 0; r < keep.size(); ++r) {
      if (spec.user_ids->count(columns.user_ids[r]) == 0) keep[r] = 0;
    }
  }
  return name_cut;
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
  return data.starts_with(kRcFileMagic);
}

uint32_t RowGroupEncoder::Dictionary::Intern(std::string_view key,
                                             std::string_view value,
                                             bool pair) {
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  const uint64_t hash = HashBytes(value, pair ? HashBytes(key, 0) : 0);
  const std::string_view page(page_);
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    const Entry& e = entries_[slots_[i] - 1];
    if (e.hash == hash &&
        page.substr(e.value_offset, e.value_length) == value &&
        page.substr(e.key_offset, e.key_length) == key) {
      return slots_[i] - 1;
    }
  }
  Entry e{hash, 0, 0, 0, 0};
  if (pair) {
    PutVarint64(&page_, key.size());
    e.key_offset = static_cast<uint32_t>(page_.size());
    e.key_length = static_cast<uint32_t>(key.size());
    page_.append(key);
  }
  PutVarint64(&page_, value.size());
  e.value_offset = static_cast<uint32_t>(page_.size());
  e.value_length = static_cast<uint32_t>(value.size());
  page_.append(value);
  entries_.push_back(e);
  slots_[i] = static_cast<uint32_t>(entries_.size());
  return slots_[i] - 1;
}

void RowGroupEncoder::Dictionary::Grow() {
  slots_.assign(std::max<size_t>(64, 2 * slots_.size()), 0);
  const size_t mask = slots_.size() - 1;
  for (size_t e = 0; e < entries_.size(); ++e) {
    size_t i = entries_[e].hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = static_cast<uint32_t>(e + 1);
  }
}

void RowGroupEncoder::Dictionary::Clear() {
  entries_.clear();
  page_.clear();
  std::fill(slots_.begin(), slots_.end(), 0u);
}

void RowGroupEncoder::Append(const events::ClientEventView& row,
                             std::span<const events::DetailView> details) {
  if (rows_.empty()) {
    min_ts_ = max_ts_ = row.timestamp;
    min_uid_ = max_uid_ = row.user_id;
  } else {
    min_ts_ = std::min<int64_t>(min_ts_, row.timestamp);
    max_ts_ = std::max<int64_t>(max_ts_, row.timestamp);
    min_uid_ = std::min(min_uid_, row.user_id);
    max_uid_ = std::max(max_uid_, row.user_id);
  }
  const auto init = static_cast<uint32_t>(row.initiator);
  if (init_code_[init] == 0) {
    init_code_[init] = ++init_count_;
    PutVarint32(&init_entries_, init);
  }
  rows_.push_back(Row{init_code_[init] - 1, names_.Intern(row.event_name),
                      sessions_.Intern(row.session_id), ips_.Intern(row.ip),
                      static_cast<uint32_t>(details.size()), row.user_id,
                      row.timestamp});
  for (const auto& [k, v] : details) {
    detail_codes_.push_back(details_.Intern(k, v));
  }
}

void RowGroupEncoder::FinishGroup(std::string* out) {
  if (rows_.empty()) return;
  // A group = header | header checksum | blob checksum | blobs. The
  // header and blob sections are built in scratch buffers so each can be
  // checksummed as the exact byte range the reader will re-hash.
  blobs_.clear();
  auto codes = [this](size_t n, uint32_t entries, auto code,
                      int min_width = 0) {
    const int width = entries == 0 ? 0 : BitWidth(entries - 1);
    AppendPackedRun(&column_, n, std::max(min_width, width), code);
  };
  auto page = [this](const Dictionary& dict) {
    PutVarint64(&column_, dict.size());
    column_.append(dict.page());
  };
  for (int c = 0; c < kEventColumns; ++c) {
    switch (static_cast<EventColumn>(c)) {
      case EventColumn::kInitiator:
        codes(rows_.size(), init_count_,
              [this](size_t i) { return rows_[i].initiator; });
        break;
      case EventColumn::kEventName:
        codes(rows_.size(), names_.size(),
              [this](size_t i) { return rows_[i].name; });
        break;
      case EventColumn::kUserId: {
        const auto base = static_cast<uint64_t>(min_uid_);
        AppendPackedRun(&column_, rows_.size(),
                        BitWidth(static_cast<uint64_t>(max_uid_) - base),
                        [this, base](size_t i) {
                          return static_cast<uint64_t>(rows_[i].user_id) -
                                 base;
                        });
        break;
      }
      case EventColumn::kSessionId:
        page(sessions_);
        codes(rows_.size(), sessions_.size(),
              [this](size_t i) { return rows_[i].session; });
        break;
      case EventColumn::kIp:
        page(ips_);
        codes(rows_.size(), ips_.size(),
              [this](size_t i) { return rows_[i].ip; });
        break;
      case EventColumn::kTimestamp: {
        auto prev = static_cast<uint64_t>(min_ts_);
        for (const Row& row : rows_) {
          const auto ts = static_cast<uint64_t>(row.timestamp);
          PutSignedVarint64(&column_, static_cast<int64_t>(ts - prev));
          prev = ts;
        }
        break;
      }
      case EventColumn::kDetails: {
        page(details_);
        uint32_t max_count = 0;
        for (const Row& row : rows_) {
          max_count = std::max(max_count, row.details);
        }
        AppendPackedRun(&column_, rows_.size(), BitWidth(max_count),
                        [this](size_t i) { return rows_[i].details; });
        PutVarint64(&column_, detail_codes_.size());
        // At least a bit wide: the reader bounds the code count by the
        // run's bytes.
        codes(detail_codes_.size(), details_.size(),
              [this](size_t i) { return detail_codes_[i]; },
              detail_codes_.empty() ? 0 : 1);
        break;
      }
    }
    PutLengthPrefixed(&blobs_, column_);
    column_.clear();
  }
  header_.clear();
  PutVarint64(&header_, rows_.size());
  PutSignedVarint64(&header_, min_ts_);
  PutSignedVarint64(&header_, max_ts_);
  PutSignedVarint64(&header_, min_uid_);
  PutSignedVarint64(&header_, max_uid_);
  PutVarint64(&header_, names_.size());
  header_.append(names_.page());
  PutVarint64(&header_, init_count_);
  header_.append(init_entries_);
  out->append(header_);
  PutVarint32(out, GroupChecksum(header_));
  PutVarint32(out, GroupChecksum(blobs_));
  out->append(blobs_);

  rows_.clear();
  detail_codes_.clear();
  std::fill(std::begin(init_code_), std::end(init_code_), 0u);
  init_count_ = 0;
  init_entries_.clear();
  for (Dictionary* dict : {&names_, &sessions_, &ips_, &details_}) {
    dict->Clear();
  }
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

RcFileReader::RcFileReader(std::string_view data) : data_(data) {}

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
  UNILOG_RETURN_NOT_OK(WalkGroups(
      data_, [&groups](const GroupHeader& hdr, size_t offset,
                       uint64_t byte_length, uint64_t) {
        groups.push_back({offset, hdr.row_count, byte_length});
      }));
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
  UNILOG_RETURN_NOT_OK(CheckMagic(data_));
  RowMatcher matcher(spec);
  ScanStats local;
  Decoder dec(data_);
  UNILOG_RETURN_NOT_OK(dec.Skip(group.offset));
  UNILOG_RETURN_NOT_OK(ScanOneGroupColumnar(&dec, spec, matcher, out, &local));
  if (stats != nullptr) stats->MergeFrom(local);
  return Status::OK();
}

Result<std::vector<RcFileReader::RowGroupStats>>
RcFileReader::CollectGroupStats() const {
  std::vector<RowGroupStats> out;
  UNILOG_RETURN_NOT_OK(WalkGroups(
      data_, [&out](const GroupHeader& hdr, size_t, uint64_t,
                    uint64_t blob_bytes) {
        RowGroupStats st;
        st.row_count = hdr.row_count;
        st.blob_bytes = blob_bytes;
        st.min_timestamp = hdr.min_ts;
        st.max_timestamp = hdr.max_ts;
        st.min_user_id = hdr.min_uid;
        st.max_user_id = hdr.max_uid;
        st.event_names.assign(hdr.name_dict.begin(), hdr.name_dict.end());
        st.initiators.reserve(hdr.init_dict.size());
        for (events::EventInitiator init : hdr.init_dict) {
          st.initiators.emplace_back(events::EventInitiatorName(init));
        }
        out.push_back(std::move(st));
      }));
  return out;
}

Result<uint64_t> RcFileReader::ContentFingerprint() const {
  // FNV-1a over (row_count, header checksum, blob checksum) per group, in
  // file order. Header-only: no column blob is decoded.
  Fnv1a64 h;
  UNILOG_RETURN_NOT_OK(WalkGroups(
      data_, [&h](const GroupHeader& hdr, size_t, uint64_t, uint64_t) {
        h.MixU64(hdr.row_count);
        h.MixU64(hdr.header_checksum);
        h.MixU64(hdr.blobs_checksum);
      }));
  return h.value();
}

}  // namespace unilog::columnar
