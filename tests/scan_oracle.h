#ifndef UNILOG_TESTS_SCAN_ORACLE_H_
#define UNILOG_TESTS_SCAN_ORACLE_H_

// Row-engine reference for ColumnarEventScan. Every part is decoded whole
// (RcFileReader::ReadAll for RCFile parts, the framed reader for framed
// parts), filtered event by event with Matches below, and shaped through
// the row Relation engine. It shares the RCFile column decoder with the
// scan under test: ReadAll unpacks the same ScanGroupColumnar arrays into
// events. What it stays independent of is everything the scan adds on top
// — pushdown (zone-map and dictionary skips, encoded-id pruning), the one
// typed selection (columnar::SelectRows) under row groups, framed parts
// and shared-scan residuals, the per-part dictionaries of framed parts,
// and batch assembly — so no scan test checks those against themselves.
// The decoder itself is pinned by the writer round-trip tests in
// columnar_test.cc (every column alone and together, details included).

#include <string>
#include <utility>
#include <vector>

#include "columnar/rcfile.h"
#include "common/compress.h"
#include "common/result.h"
#include "dataflow/columnar_scan.h"
#include "dataflow/relation.h"
#include "events/client_event.h"
#include "events/event_name.h"
#include "hdfs/mini_hdfs.h"

namespace unilog::scan_oracle {

/// The row-at-a-time reference of a ScanSpec's predicates: true when
/// `event` lies in the timestamp range, its user id is allowed, and its
/// name passes RowMatcher::NameMatches.
inline bool Matches(const columnar::ScanSpec& spec,
                    const events::ClientEvent& event) {
  if (spec.min_timestamp && event.timestamp < *spec.min_timestamp) {
    return false;
  }
  if (spec.max_timestamp && event.timestamp > *spec.max_timestamp) {
    return false;
  }
  if (spec.user_ids && !spec.user_ids->count(event.user_id)) return false;
  return columnar::RowMatcher(spec).NameMatches(event.event_name);
}

/// The six relational columns a client-event scan exposes, in the order
/// of columnar::EventColumn.
inline const std::vector<std::string>& EventColumns() {
  static const std::vector<std::string> kColumns = {
      "initiator", "event_name", "user_id", "session_id", "ip", "timestamp"};
  return kColumns;
}

/// Every event under `dir` in scan order: the sorted listing minus hidden
/// paths, each file front to back.
inline Result<std::vector<events::ClientEvent>> ReadAllEvents(
    const hdfs::MiniHdfs& fs, const std::string& dir) {
  std::vector<events::ClientEvent> out;
  UNILOG_ASSIGN_OR_RETURN(auto listing, fs.ListRecursive(dir));
  for (const auto& entry : listing) {
    if (entry.is_dir || dataflow::IsHiddenWarehousePath(dir, entry.path)) {
      continue;
    }
    UNILOG_ASSIGN_OR_RETURN(std::string body, fs.ReadFile(entry.path));
    if (columnar::IsRcFile(body)) {
      UNILOG_RETURN_NOT_OK(
          columnar::RcFileReader(body).ReadAll(columnar::kAllColumns, &out));
      continue;
    }
    UNILOG_ASSIGN_OR_RETURN(std::string framed, Lz::Decompress(body));
    events::ClientEventReader reader(framed);
    events::ClientEvent ev;
    while (true) {
      Status st = reader.Next(&ev);
      if (st.IsNotFound()) break;
      UNILOG_RETURN_NOT_OK(st);
      out.push_back(ev);
    }
  }
  return out;
}

/// `events` as a row Relation over EventColumns().
inline Result<dataflow::Relation> EventRelation(
    const std::vector<events::ClientEvent>& events) {
  std::vector<dataflow::Row> rows;
  rows.reserve(events.size());
  for (const auto& ev : events) {
    rows.push_back(
        {dataflow::Value::Str(events::EventInitiatorName(ev.initiator)),
         dataflow::Value::Str(ev.event_name), dataflow::Value::Int(ev.user_id),
         dataflow::Value::Str(ev.session_id), dataflow::Value::Str(ev.ip),
         dataflow::Value::Int(ev.timestamp)});
  }
  return dataflow::Relation::FromRows(EventColumns(), std::move(rows));
}

/// Keeps `cols` of `rel`, renamed to `names`.
inline Result<dataflow::Relation> ProjectAs(
    const dataflow::Relation& rel, const std::vector<std::string>& cols,
    const std::vector<std::string>& names) {
  UNILOG_ASSIGN_OR_RETURN(dataflow::Relation projected, rel.Project(cols));
  return dataflow::Relation::FromRows(
      names, std::vector<dataflow::Row>(projected.rows()));
}

/// What `scan.Materialize()` must return over `dir`: the events
/// `scan.spec()` admits, projected to `scan.visible()`.
inline Result<dataflow::Relation> ReferenceMaterialize(
    const hdfs::MiniHdfs& fs, const std::string& dir,
    const dataflow::ColumnarEventScan& scan) {
  UNILOG_ASSIGN_OR_RETURN(std::vector<events::ClientEvent> all,
                          ReadAllEvents(fs, dir));
  std::vector<events::ClientEvent> kept;
  for (const auto& ev : all) {
    if (Matches(scan.spec(), ev)) kept.push_back(ev);
  }
  UNILOG_ASSIGN_OR_RETURN(dataflow::Relation rel, EventRelation(kept));
  std::vector<std::string> cols, names;
  for (const auto& [name, source] : scan.visible()) {
    cols.push_back(EventColumns()[static_cast<size_t>(source)]);
    names.push_back(name);
  }
  return ProjectAs(rel, cols, names);
}

}  // namespace unilog::scan_oracle

#endif  // UNILOG_TESTS_SCAN_ORACLE_H_
