#ifndef UNILOG_SESSIONS_SESSION_SEQUENCE_H_
#define UNILOG_SESSIONS_SESSION_SEQUENCE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "hdfs/mini_hdfs.h"
#include "sessions/dictionary.h"
#include "sessions/sessionizer.h"

namespace unilog::sessions {

/// The materialized relation of §4.2 (one tuple per session):
///   user_id: long, session_id: string, ip: string,
///   session_sequence: string, duration: int
/// `sequence` is a valid UTF-8 string: one code point per client event, in
/// order, mapped through the EventDictionary. Other than the overall
/// duration, no temporal information survives — an explicit design choice
/// for compactness.
struct SessionSequence {
  int64_t user_id = 0;
  std::string session_id;
  std::string ip;
  std::string sequence;  // UTF-8 code points
  int32_t duration_seconds = 0;

  /// Number of events in the session (code points in `sequence`).
  size_t EventCount() const;

  bool operator==(const SessionSequence& other) const;
};

/// Encodes a reconstructed session through the dictionary.
Result<SessionSequence> EncodeSession(const Session& session,
                                      const EventDictionary& dict);

/// Serialization of one record (varint/length-prefixed fields).
void AppendSequenceRecord(std::string* out, const SessionSequence& seq);

/// On-disk daily partition of session sequences under
/// /session_sequences/YYYY-MM-DD/: compressed framed record files plus the
/// day's _dictionary. This is the layout the Pig loader
/// (SessionSequencesLoader in §5.2) abstracts over.
class SequenceStore {
 public:
  /// Root directory in the warehouse.
  static constexpr const char* kRoot = "/session_sequences";

  /// Options for writing a daily partition.
  struct WriteOptions {
    uint64_t target_file_bytes = 4 * 1024 * 1024;  // pre-compression
  };

  /// Writes a day's sequences and dictionary. Fails if the partition
  /// already exists (daily jobs are write-once; rerun after a Delete).
  static Status WriteDaily(hdfs::MiniHdfs* fs, TimeMs date,
                           const std::vector<SessionSequence>& sequences,
                           const EventDictionary& dict,
                           const WriteOptions& options);
  static Status WriteDaily(hdfs::MiniHdfs* fs, TimeMs date,
                           const std::vector<SessionSequence>& sequences,
                           const EventDictionary& dict) {
    return WriteDaily(fs, date, sequences, dict, WriteOptions());
  }

  /// Loads the day's dictionary.
  static Result<EventDictionary> LoadDictionary(const hdfs::MiniHdfs& fs,
                                                TimeMs date);

  /// Loads all of a day's sequences (small-scale convenience; queries that
  /// care about scan cost use the dataflow engine instead).
  static Result<std::vector<SessionSequence>> LoadDaily(
      const hdfs::MiniHdfs& fs, TimeMs date);

  /// The one reader of a partition directory: decompresses every part
  /// under `dir` in listing order and calls `visit` on each record,
  /// stopping at the first error. Hidden paths (see
  /// hdfs::IsHiddenWarehousePath: the _dictionary, _SUCCESS and anything
  /// under a '_'-prefixed subdirectory) are skipped.
  static Status ReadDir(
      const hdfs::MiniHdfs& fs, const std::string& dir,
      const std::function<Status(const SessionSequence&)>& visit);

  /// The partition directory for a date.
  static std::string PartitionDir(TimeMs date);
};

/// Streaming decoder over one (decompressed) sequence-file body.
class SequenceRecordReader {
 public:
  explicit SequenceRecordReader(std::string_view body) : body_(body) {}

  /// Reads the next record; NotFound at clean end of stream.
  Status Next(SessionSequence* out);

 private:
  std::string_view body_;
  size_t pos_ = 0;
};

}  // namespace unilog::sessions

#endif  // UNILOG_SESSIONS_SESSION_SEQUENCE_H_
