#ifndef UNILOG_ETWIN_INDEX_H_
#define UNILOG_ETWIN_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "events/event_name.h"
#include "hdfs/mini_hdfs.h"

namespace unilog::etwin {

/// Elephant Twin-style indexing (§6): a per-partition inverted index from
/// event names to the files that contain them, living *alongside the data*
/// (in contrast to Trojan layouts) and integrated at the InputFormat level
/// so "applications and frameworks higher up the stack can transparently
/// take advantage of indexes for free" — in unilog, via
/// InputFormat::WithFileFilter on the MapReduceJob.
///
/// Because the index is a separate file, re-indexing is cheap: drop
/// `_etwin_index` and rebuild (the paper rebuilds its full-text tweet
/// indexes from scratch as tokenizers improve).
class EventNameIndex {
 public:
  /// The index file name inside an indexed partition directory.
  static constexpr const char* kIndexFile = "_etwin_index";

  /// Scans every data file under `dir` (compressed framed client events)
  /// and writes the index to <dir>/_etwin_index. Each record is indexed
  /// under the name events::ReadClientEventBody parses from it; records
  /// that parse rejects are left out. Overwrites an existing index
  /// (rebuild-from-scratch semantics). A non-empty `renamed_to` records
  /// every file under that directory instead of `dir`, so a directory can
  /// be indexed before it is renamed into place.
  static Status BuildForDir(hdfs::MiniHdfs* fs, const std::string& dir,
                            const std::string& renamed_to = "");

  /// Loads the index of a partition; NotFound if not built.
  static Result<EventNameIndex> Load(const hdfs::MiniHdfs& fs,
                                     const std::string& dir);

  /// Files under the indexed dir whose records may match `pattern`.
  std::vector<std::string> FilesMatching(
      const events::EventPattern& pattern) const;

  /// A push-down predicate for InputFormat::WithFileFilter: accepts only
  /// files containing at least one event matching `pattern`. Files not
  /// covered by the index (e.g. added after the build) are conservatively
  /// accepted.
  std::function<bool(const std::string& path)> FileFilter(
      const events::EventPattern& pattern) const;

  size_t indexed_files() const { return file_names_.size(); }
  size_t distinct_event_names() const { return name_to_files_.size(); }

  /// Serialization (what's stored in _etwin_index).
  std::string Serialize() const;
  static Result<EventNameIndex> Deserialize(std::string_view data);

 private:
  /// file index → file path.
  std::vector<std::string> file_names_;
  /// event name → indices into file_names_.
  std::map<std::string, std::set<uint32_t>> name_to_files_;
};

}  // namespace unilog::etwin

#endif  // UNILOG_ETWIN_INDEX_H_
