#ifndef UNILOG_COLUMNAR_RCFILE_H_
#define UNILOG_COLUMNAR_RCFILE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "events/client_event.h"
#include "events/event_name.h"

namespace unilog::obs {
class MetricsRegistry;
}  // namespace unilog::obs

namespace unilog::columnar {

/// A simplified RCFile (He et al., ICDE 2011): the columnar layout §4.2
/// considers as an alternative to session sequences. Rows are batched into
/// row groups; within a group each client-event field is stored as its own
/// column run, so a projection query decodes only the columns it touches.
///
/// A file is the 4-byte magic "RCF3" followed by row groups (an empty body
/// is a file of no groups). Every group has the same frame:
///
///   header | header checksum | blob checksum | 7 length-prefixed blobs
///
/// The header holds the row count, a zone map (min/max timestamp, min/max
/// user id) and the group dictionaries of the two low-cardinality columns
/// (event_name, initiator). This buys the scan fast path three skips, all
/// before a single row is materialized:
///
///   1. zone-map skip     — a timestamp-range or user-id predicate that
///                          cannot match the group skips every blob;
///   2. dictionary skip   — an event-name predicate with no matching
///                          dictionary entry skips every blob;
///   3. encoded pruning   — surviving groups evaluate event-name
///                          predicates on dictionary codes and only
///                          materialize the selected rows.
///
/// The two checksums cover the header bytes (verified on every header
/// parse) and the blob section (verified only when the group is actually
/// scanned), so zone-map skips stay header-only while any flipped byte in
/// either section is still a Corruption error rather than silently
/// different data. Both apply the FNV-1a step to little-endian 32-bit
/// words (a 1-3 byte tail bytewise), a quarter of the multiplies of a
/// bytewise hash for headers that every index, scan and content
/// fingerprint re-verifies.
///
/// A blob holds one fixed encoding per column and no Lz. Its building
/// block is the packed run:
/// one width byte (at most 64), then n values of `width` bits packed
/// LSB-first into exactly ceil(n * width / 8) bytes.
///
///   initiator, event_name — a packed run of codes into the header's
///                          dictionary, at the dictionary's width;
///   user_id              — frame of reference: a packed run of
///                          user_id - min_uid;
///   timestamp            — per row, a zigzag varint of the delta from the
///                          previous row's timestamp (row 0: from min_ts);
///   session_id, ip       — a page (entry count, then each distinct value
///                          length-prefixed, in first-appearance order),
///                          then a packed run of codes into it;
///   details              — a page of distinct (key, value) entries (count,
///                          then length-prefixed key and value), a packed
///                          run of per-row pair counts, the total code
///                          count, then a packed run of codes into the page
///                          (at least 1 bit wide when any code exists).
///
/// This is the format's third version and the only one the reader reads:
/// a non-empty body without the RCF3 magic is Corruption. The earlier
/// layouts (v1: no magic, no zone maps; v2: "RCF2", Lz-compressed blobs)
/// survive only as frozen test fixtures.

/// The client-event columns, in storage order.
enum class EventColumn : int {
  kInitiator = 0,
  kEventName = 1,
  kUserId = 2,
  kSessionId = 3,
  kIp = 4,
  kTimestamp = 5,
  kDetails = 6,
};
inline constexpr int kEventColumns = 7;

/// A bitmask of columns to read.
using ColumnMask = uint32_t;
inline constexpr ColumnMask kAllColumns = (1u << kEventColumns) - 1;
inline ColumnMask ColumnBit(EventColumn c) {
  return 1u << static_cast<int>(c);
}

/// Hard ceiling on rows per group; headers claiming more are rejected as
/// corrupt before any allocation is sized from the claimed count.
inline constexpr uint64_t kMaxRowsPerGroup = 1u << 20;

/// Rows per group when a writer is not told otherwise.
inline constexpr size_t kDefaultRowsPerGroup = 1024;

/// What a scan should return and which rows it may drop. All predicates
/// are conjunctive; rows must satisfy every engaged predicate. Fields not
/// in `columns` keep their default values in the output events.
struct ScanSpec {
  ColumnMask columns = kAllColumns;
  /// Inclusive timestamp range.
  std::optional<int64_t> min_timestamp;
  std::optional<int64_t> max_timestamp;
  /// Exact-match event-name allowlist.
  std::optional<std::set<std::string>> event_names;
  /// Glob patterns (events::EventPattern syntax); each must match.
  std::vector<std::string> event_name_patterns;
  /// user_id allowlist.
  std::optional<std::set<int64_t>> user_ids;

  bool has_name_predicate() const {
    return event_names.has_value() || !event_name_patterns.empty();
  }
  bool has_predicates() const {
    return has_name_predicate() || min_timestamp.has_value() ||
           max_timestamp.has_value() || user_ids.has_value();
  }
};

/// Scan-side accounting, the numbers §4.2's economics argument is about.
struct ScanStats {
  uint64_t groups_total = 0;
  uint64_t groups_scanned = 0;
  /// Groups eliminated whole by a zone map or dictionary check.
  uint64_t groups_skipped = 0;
  /// Stored column bytes actually decoded: the encoded blobs of the
  /// columns the scan read, each counted once per group.
  uint64_t bytes_decompressed = 0;
  /// Rows in groups that were decoded.
  uint64_t rows_scanned = 0;
  /// Rows eliminated before materialization (skipped groups + predicate
  /// failures on encoded values).
  uint64_t rows_pruned = 0;
  uint64_t rows_returned = 0;
  /// Rows cut by a dictionary-domain verdict: the name predicate was
  /// evaluated once per dictionary entry and the row only compared its
  /// encoded id (or the whole group was dictionary-skipped) — the row's
  /// string was never touched. A subset of rows_pruned.
  uint64_t dict_domain_rows_pruned = 0;

  void MergeFrom(const ScanStats& other);
};

/// Increments the `columnar.*` counters (groups_scanned, groups_skipped,
/// bytes_decompressed, rows_pruned, rows_returned) labeled
/// {source=<source>} in `metrics`. No-op when `metrics` is null.
void ReportScanStats(const ScanStats& stats, obs::MetricsRegistry* metrics,
                     const std::string& source);

/// A ScanSpec's event-name predicates, with the glob patterns compiled
/// once at construction. Callers evaluate it once per dictionary entry
/// (NameVerdicts) and feed the verdicts to SelectRows, which compares
/// each row's code: RCFile groups over their header dictionary, framed
/// parts over the dictionary the scan builds per part, and a shared
/// scan's member residuals over the union scan's arrays. Borrows `spec`;
/// the spec must outlive the matcher.
class RowMatcher {
 public:
  explicit RowMatcher(const ScanSpec& spec);
  /// The spec's event-name predicates alone: allowlist membership and
  /// every glob.
  bool NameMatches(std::string_view name) const;
  /// NameMatches of each dictionary entry, 1 for a match. Empty when the
  /// spec has no name predicate.
  template <typename Strings>
  std::vector<uint8_t> NameVerdicts(const Strings& dict) const {
    std::vector<uint8_t> verdicts;
    if (!spec_->has_name_predicate()) return verdicts;
    verdicts.reserve(dict.size());
    for (const auto& name : dict) verdicts.push_back(NameMatches(name));
    return verdicts;
  }

 private:
  const ScanSpec* spec_;
  std::vector<events::EventPattern> patterns_;
};

/// One group's predicate columns, one entry per row (the name verdicts
/// one per dictionary entry). SelectRows reads an array only when the
/// spec constrains its column, so the others may be empty.
struct PredicateColumns {
  std::span<const uint32_t> name_codes;
  std::span<const uint8_t> name_verdicts;
  std::span<const int64_t> timestamps;
  std::span<const int64_t> user_ids;
};

/// The one evaluator of a ScanSpec's row predicates. Clears keep[r] for
/// every row r that `spec` rejects: a name code whose verdict is 0, a
/// timestamp outside [min_timestamp, max_timestamp], a user id outside
/// the allowlist. Returns how many rows the name verdicts rejected,
/// whatever else rejects them too.
uint64_t SelectRows(const ScanSpec& spec, const PredicateColumns& columns,
                    std::span<uint8_t> keep);

/// The file magic: a file is the magic followed by its row groups, each as
/// RowGroupEncoder::FinishGroup emits it.
inline constexpr std::string_view kRcFileMagic = "RCF3";

/// True when `data` carries the RCF3 magic.
bool IsRcFile(std::string_view data);

/// The one row-group encoder. Each appended row is coded on sight into
/// reused per-row arrays: initiator, event-name, session, ip and details
/// values get dictionary codes in first-appearance order, and the zone map
/// is a running min/max. FinishGroup packs the arrays into the column
/// encodings. Rows are copied as they are appended, so views may die right
/// after Append. Once its buffers have grown to a group's size the encoder
/// allocates nothing. Not thread-safe; one encoder per thread.
class RowGroupEncoder {
 public:
  void Append(const events::ClientEventView& row,
              std::span<const events::DetailView> details);

  size_t rows() const { return rows_.size(); }

  /// Appends the encoded group to *out (header, header checksum, blob
  /// checksum, blobs) and starts the next group.
  /// No-op when no row was appended.
  void FinishGroup(std::string* out);

 private:
  /// One group's distinct values of a column in an open-addressed table.
  /// A new value is appended to `page` in first-appearance order, length-
  /// prefixed (a details entry as its key, then its value), so the page is
  /// the column's dictionary as stored. Clear keeps every capacity.
  class Dictionary {
   public:
    uint32_t Intern(std::string_view value) { return Intern({}, value, false); }
    uint32_t Intern(std::string_view key, std::string_view value) {
      return Intern(key, value, true);
    }
    uint32_t size() const { return static_cast<uint32_t>(entries_.size()); }
    const std::string& page() const { return page_; }
    void Clear();

   private:
    struct Entry {
      uint64_t hash;
      uint32_t key_offset, key_length;  // in page_; empty unless a pair
      uint32_t value_offset, value_length;
    };
    uint32_t Intern(std::string_view key, std::string_view value, bool pair);
    void Grow();

    std::vector<Entry> entries_;
    std::vector<uint32_t> slots_;  // entry index + 1, 0 when empty
    std::string page_;
  };

  /// One appended row, coded.
  struct Row {
    uint32_t initiator, name, session, ip;
    uint32_t details;  // pair count; the codes are in detail_codes_
    int64_t user_id, timestamp;
  };

  std::vector<Row> rows_;
  std::vector<uint32_t> detail_codes_;
  int64_t min_ts_ = 0, max_ts_ = 0, min_uid_ = 0, max_uid_ = 0;
  uint32_t init_code_[4] = {};  // code + 1, 0 when not seen in the group
  uint32_t init_count_ = 0;
  std::string init_entries_;
  Dictionary names_, sessions_, ips_, details_;
  std::string column_, header_, blobs_;
};

/// Writes client events into the columnar layout: a thin wrapper that
/// feeds a RowGroupEncoder and cuts a group every `rows_per_group` rows.
class RcFileWriter {
 public:
  /// `out` receives the file body; groups hold up to `rows_per_group`
  /// rows (clamped to [1, kMaxRowsPerGroup]).
  explicit RcFileWriter(std::string* out,
                        size_t rows_per_group = kDefaultRowsPerGroup);

  /// Appends one event. Fails with FailedPrecondition once Finish() has
  /// been called (appending then would corrupt the file tail).
  Status Add(const events::ClientEvent& event);

  /// Flushes the trailing partial group. Idempotent; must be called last.
  Status Finish();

  size_t rows_written() const { return rows_written_; }

 private:
  void FlushGroup();

  std::string* out_;
  size_t rows_per_group_;
  size_t rows_written_ = 0;
  bool finished_ = false;
  bool wrote_magic_ = false;
  RowGroupEncoder encoder_;
  std::vector<events::DetailView> details_;  // per-Add scratch
};

/// Reads a columnar file, decoding only the requested columns and — given
/// a ScanSpec — skipping whole row groups via zone maps and dictionaries.
/// Every entry point answers a body without the RCF3 magic with
/// Corruption.
class RcFileReader {
 public:
  explicit RcFileReader(std::string_view data);

  /// Reads every row, populating only the fields whose columns are in
  /// `mask` (other fields keep their default values). Appends to `out`.
  /// Masks with bits outside the known columns are InvalidArgument.
  Status ReadAll(ColumnMask mask, std::vector<events::ClientEvent>* out) const;

  /// Predicate + projection scan. Appends the selected rows, in file
  /// order, to `out`; accumulates accounting into `stats` when non-null
  /// (`bytes_decompressed` is the projection saving RCFile exists for).
  /// Every group goes through ScanGroupColumnar and is then unpacked into
  /// events, so there is one column decoder under every read.
  Status Scan(const ScanSpec& spec, std::vector<events::ClientEvent>* out,
              ScanStats* stats = nullptr) const;

  /// A row group's position, for group-parallel scans. `byte_length` (the
  /// group's full extent: header plus blobs) is the byte
  /// weight morsel-driven scan scheduling packs by.
  struct RowGroupHandle {
    size_t offset = 0;
    uint64_t row_count = 0;
    uint64_t byte_length = 0;
  };

  /// Walks the file once (headers only, nothing decoded) and returns
  /// a handle per row group, in file order.
  Result<std::vector<RowGroupHandle>> IndexGroups() const;

  /// Scans a single row group. Thread-safe: touches no reader state, so
  /// disjoint groups may be scanned concurrently; appending each group's
  /// output in handle order reproduces Scan() exactly.
  Status ScanGroup(const RowGroupHandle& group, const ScanSpec& spec,
                   std::vector<events::ClientEvent>* out,
                   ScanStats* stats) const;

  /// One scanned row group as typed column arrays — the zero-boxing
  /// output the vectorized dataflow engine consumes, and the form every
  /// event read is unpacked from. Only the columns in the ScanSpec mask
  /// are populated; each vector holds one entry per *selected* row, in
  /// file order. Event names and initiators stay dictionary-encoded
  /// (codes plus a shared dictionary of the distinct strings), so a
  /// group's strings are materialized once per distinct value, never per
  /// row.
  struct ColumnarGroup {
    uint64_t rows = 0;
    std::vector<uint32_t> name_codes;
    std::shared_ptr<const std::vector<std::string>> name_dict;
    /// Initiator display names (EventInitiatorName), <= 4 entries, and
    /// the same entries as enum values.
    std::vector<uint32_t> init_codes;
    std::shared_ptr<const std::vector<std::string>> init_dict;
    std::vector<events::EventInitiator> init_values;
    std::vector<int64_t> user_ids;
    std::vector<int64_t> timestamps;
    std::vector<std::string> session_ids;
    std::vector<std::string> ips;
    /// Key-value pairs per row; the relational scans never request them.
    std::vector<std::vector<std::pair<std::string, std::string>>> details;
  };

  /// The one group decoder: selects the group's rows (zone-map and
  /// dictionary skips, encoded-id pruning) and decodes the masked columns
  /// of the selected rows into typed arrays. Thread-safe like ScanGroup.
  Status ScanGroupColumnar(const RowGroupHandle& group, const ScanSpec& spec,
                           ColumnarGroup* out, ScanStats* stats) const;

  /// Header-only statistics of one row group: zone maps and dictionary
  /// names come straight from the header (nothing is decoded);
  /// `blob_bytes` is the stored size of the group's column blobs. Outside
  /// the tests, only bench/e2e's stats replay reads them, through
  /// ColumnarEventScan::Stats(); no Oink tick does.
  struct RowGroupStats {
    uint64_t row_count = 0;
    uint64_t blob_bytes = 0;
    int64_t min_timestamp = 0, max_timestamp = 0;
    int64_t min_user_id = 0, max_user_id = 0;
    std::vector<std::string> event_names;  // dictionary entries
    /// Initiator display names (EventInitiatorName).
    std::vector<std::string> initiators;
  };

  /// Walks the file headers once and returns per-group stats in file
  /// order. Header-only: no blob is decoded.
  Result<std::vector<RowGroupStats>> CollectGroupStats() const;

  /// A 64-bit content fingerprint of the file, derived from the
  /// per-group header and blob checksums already embedded in the
  /// format — so it is computed header-only, without decoding a single
  /// column blob. Any content change alters a group checksum and therefore the
  /// fingerprint; the Oink memoization layer uses it as the input half of
  /// a cache key. Corruption on malformed files.
  Result<uint64_t> ContentFingerprint() const;

 private:
  std::string_view data_;
};

}  // namespace unilog::columnar

#endif  // UNILOG_COLUMNAR_RCFILE_H_
