// E16 (§4.2, design-decision analysis): session sequences vs the two
// alternatives the paper considered and rejected for the common-case
// (names-only) session query:
//
//   raw rows        — the status quo: full scan + big group-by;
//   session-ordered — "simply reorganize (rewrite) the complete Thrift
//                     messages by reconstructing user sessions": kills the
//                     group-by but "would have little impact on ... too
//                     many brute force scans";
//   RCFile columnar — "primarily focuses on reducing the running time of
//                     each map task; without modification, RCFiles would
//                     not reduce the number of mappers";
//   session seqs    — "address both the group-by and brute force scan
//                     issues at the same time".
//
// For the same day and the same names-only query, reports per layout:
// bytes on disk, bytes a projection query must touch, map tasks spawned,
// and whether a session group-by shuffle is still required.
//
// E18 (scan fast path) rides in the second half: the same day written as
// RCFile (zone maps + dictionaries) and scanned with a selective
// timestamp-range + event-name ScanSpec, verifying the pushdown scan is
// byte-identical to full-scan-then-filter at 1/2/8 threads and measuring
// the reduction in bytes decompressed. Results land in BENCH_scan.json.
//
// Exits nonzero when any E16 shape check reads NO or E18's pushdown scan
// diverges or misses its reduction floor.

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/udfs.h"
#include "bench_common.h"
#include "columnar/rcfile.h"
#include "common/fnv.h"
#include "events/client_event.h"
#include "events/event_name.h"
#include "landing_oracle.h"
#include "scribe/message.h"
#include "sessions/session_sequence.h"

namespace unilog {
namespace {

struct LayoutRow {
  const char* name;
  uint64_t disk_bytes = 0;
  uint64_t touched_bytes = 0;  // bytes decompressed by the names-only query
  uint64_t map_tasks = 0;      // blocks under the shared block size
  bool needs_group_by = false;
  uint64_t answer = 0;  // matching event count, must agree across layouts
};

// Order-sensitive digest of a result set; any reordering, dropped row, or
// field difference changes it.
/// Events of a framed body whose name matches `query`, each message parsed
/// in place as a view (the names-only projection of the row layouts).
uint64_t CountMatchingNames(const std::string& body,
                            const events::EventPattern& query) {
  std::vector<std::string_view> records;
  if (!scribe::UnframeMessageViews(body, &records).ok()) return 0;
  events::ClientEventView ev;
  std::vector<events::DetailView> details;
  uint64_t matches = 0;
  for (std::string_view record : records) {
    details.clear();
    if (events::ReadClientEventBody(record, &ev, &details).ok() &&
        query.Matches(ev.event_name)) {
      ++matches;
    }
  }
  return matches;
}

uint64_t EventsDigest(const std::vector<events::ClientEvent>& events) {
  Fnv1a64 h;
  for (const auto& ev : events) {
    std::string record = ev.Serialize();
    PutVarint64(&record, record.size());
    h.Mix(record);
  }
  return h.value();
}

// E18: pushdown scan vs ReadAll-then-filter on the same file. Returns
// false when a digest mismatches or the bytes-decompressed reduction is
// under 2x (the acceptance floor).
bool RunPushdownSection(const std::vector<events::ClientEvent>& all) {
  std::printf("\n=== E18: columnar scan fast path (zone maps + dictionary "
              "pushdown) ===\n\n");

  // The mover lays warehouse hours out in time order, so a day of parts
  // has strong time locality; sorting by timestamp reproduces that layout
  // in a single file (row groups become nearly hour-contiguous).
  std::vector<events::ClientEvent> rows = all;
  std::stable_sort(rows.begin(), rows.end(),
                   [](const events::ClientEvent& a,
                      const events::ClientEvent& b) {
                     return a.timestamp < b.timestamp;
                   });
  std::string body;
  columnar::RcFileWriter writer(&body, /*rows_per_group=*/1024);
  for (const auto& ev : rows) writer.Add(ev);
  if (!writer.Finish().ok()) return false;

  // The selective query: a mid-day four-hour window of clicks.
  columnar::ScanSpec spec;
  spec.min_timestamp = bench::kBenchDay + 10 * kMillisPerHour;
  spec.max_timestamp = bench::kBenchDay + 14 * kMillisPerHour - 1;
  spec.event_name_patterns.push_back("*:click");

  // Baseline: decompress every column of every group, filter afterwards.
  uint64_t baseline_bytes = 0;
  uint64_t baseline_digest = 0;
  size_t baseline_rows = 0;
  {
    columnar::RcFileReader reader(body);
    std::vector<events::ClientEvent> everything;
    columnar::ScanStats full;
    if (!reader.Scan(columnar::ScanSpec(), &everything, &full).ok()) {
      return false;
    }
    baseline_bytes = full.bytes_decompressed;
    events::EventPattern pattern("*:click");
    std::vector<events::ClientEvent> selected;
    for (const auto& ev : everything) {
      if (ev.timestamp >= *spec.min_timestamp &&
          ev.timestamp <= *spec.max_timestamp &&
          pattern.Matches(ev.event_name)) {
        selected.push_back(ev);
      }
    }
    baseline_rows = selected.size();
    baseline_digest = EventsDigest(selected);
  }

  // Pushdown, serial Scan().
  columnar::ScanStats stats;
  uint64_t pushdown_digest = 0;
  {
    columnar::RcFileReader reader(body);
    std::vector<events::ClientEvent> selected;
    if (!reader.Scan(spec, &selected, &stats).ok()) return false;
    pushdown_digest = EventsDigest(selected);
  }

  // Pushdown, group-parallel ScanGroup() at 1/2/8 threads: per-group
  // output slots merged in handle order must reproduce Scan() exactly.
  bool digests_identical = pushdown_digest == baseline_digest;
  columnar::RcFileReader reader(body);
  auto groups = reader.IndexGroups();
  if (!groups.ok()) return false;
  std::printf("%8s %12s  %s\n", "threads", "best_ms", "digest");
  for (int threads : {1, 2, 8}) {
    exec::ExecOptions eopts;
    eopts.threads = threads;
    exec::Executor executor(eopts);
    double best_ms = 0;
    uint64_t digest = 0;
    for (int rep = 0; rep < 3; ++rep) {
      bench::WallTimer timer;
      std::vector<std::vector<events::ClientEvent>> slots(groups->size());
      Status st = executor.ParallelForStatus(
          "bench_scan", groups->size(), [&](size_t g) {
            return reader.ScanGroup((*groups)[g], spec, &slots[g], nullptr);
          });
      if (!st.ok()) return false;
      std::vector<events::ClientEvent> merged;
      for (auto& slot : slots) {
        for (auto& ev : slot) merged.push_back(std::move(ev));
      }
      digest = EventsDigest(merged);
      double ms = timer.ElapsedMs();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    bool same = digest == baseline_digest;
    digests_identical = digests_identical && same;
    std::printf("%8d %12.2f  %s\n", threads, best_ms,
                same ? "identical" : "MISMATCH!");
  }

  double reduction =
      stats.bytes_decompressed > 0
          ? static_cast<double>(baseline_bytes) /
                static_cast<double>(stats.bytes_decompressed)
          : static_cast<double>(baseline_bytes);
  std::printf("\nquery: 4h window + '*:click' over %zu rows\n", rows.size());
  std::printf("  groups: %llu total, %llu skipped (zone map/dictionary), "
              "%llu scanned\n",
              static_cast<unsigned long long>(stats.groups_total),
              static_cast<unsigned long long>(stats.groups_skipped),
              static_cast<unsigned long long>(stats.groups_scanned));
  std::printf("  rows: %llu pruned before materialization, %llu returned "
              "(baseline %zu)\n",
              static_cast<unsigned long long>(stats.rows_pruned),
              static_cast<unsigned long long>(stats.rows_returned),
              baseline_rows);
  std::printf("  bytes decompressed: %s pushdown vs %s ReadAll -> %.1fx "
              "reduction (floor 2.0x)\n",
              HumanBytes(stats.bytes_decompressed).c_str(),
              HumanBytes(baseline_bytes).c_str(), reduction);
  std::printf("  pushdown == full-scan-then-filter at 1/2/8 threads: %s\n",
              digests_identical ? "YES" : "NO");

  bool pass = digests_identical && reduction >= 2.0;
  Json section = Json::Object();
  section.Set("rows", Json::Int(static_cast<int64_t>(rows.size())));
  section.Set("query", Json::Str("timestamp in [day+10h, day+14h) and "
                                 "event_name matches *:click"));
  section.Set("groups_total", Json::Int(stats.groups_total));
  section.Set("groups_skipped", Json::Int(stats.groups_skipped));
  section.Set("groups_scanned", Json::Int(stats.groups_scanned));
  section.Set("rows_pruned", Json::Int(stats.rows_pruned));
  section.Set("rows_returned", Json::Int(stats.rows_returned));
  section.Set("baseline_bytes_decompressed",
              Json::Int(static_cast<int64_t>(baseline_bytes)));
  section.Set("pushdown_bytes_decompressed",
              Json::Int(static_cast<int64_t>(stats.bytes_decompressed)));
  section.Set("bytes_reduction", Json::Number(reduction));
  section.Set("digests_identical_threads_1_2_8",
              Json::Bool(digests_identical));
  section.Set("pass", Json::Bool(pass));
  Status js = bench::MergeBenchJsonSection("BENCH_scan.json",
                                           "rcfile_pushdown", section);
  if (!js.ok()) {
    std::fprintf(stderr, "BENCH_scan.json write failed: %s\n",
                 js.ToString().c_str());
    return false;
  }
  std::printf("  wrote BENCH_scan.json section 'rcfile_pushdown'\n");
  return pass;
}

}  // namespace
}  // namespace unilog

int main(int argc, char** argv) {
  using namespace unilog;
  int users = bench::ParseUsersFlag(&argc, argv);
  std::printf("=== E16 / §4.2: session sequences vs rejected alternatives "
              "(RCFile, session-ordered rows) ===\n\n");

  workload::WorkloadOptions wopts = bench::DefaultWorkload(42, users);
  wopts.extra_detail_pairs = 5;  // production-verbosity payloads
  workload::WorkloadGenerator generator(wopts);
  std::vector<events::ClientEvent> all;
  if (!generator.Generate(
          [&](const events::ClientEvent& ev) { all.push_back(ev); }).ok()) {
    return 1;
  }

  const uint64_t kBlock = 256 * 1024;
  auto blocks = [&](uint64_t bytes) { return (bytes + kBlock - 1) / kBlock; };
  events::EventPattern query("*:click");

  // ---- Layout A: raw rows (arrival order), framed + compressed. --------
  LayoutRow raw{"raw rows"};
  {
    std::string body;
    events::ClientEventWriter writer(&body);
    for (const auto& ev : all) writer.Add(ev);
    std::string disk = Lz::Compress(body);
    raw.disk_bytes = disk.size();
    raw.touched_bytes = disk.size();  // must decompress everything
    raw.map_tasks = blocks(raw.disk_bytes);
    raw.needs_group_by = true;
    raw.answer = CountMatchingNames(body, query);
  }

  // ---- Layout B: session-ordered rows (rewritten by session). ----------
  LayoutRow ordered{"session-ordered rows"};
  {
    std::vector<events::ClientEvent> sorted = all;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const events::ClientEvent& a,
                        const events::ClientEvent& b) {
                       if (a.user_id != b.user_id) return a.user_id < b.user_id;
                       if (a.session_id != b.session_id) {
                         return a.session_id < b.session_id;
                       }
                       return a.timestamp < b.timestamp;
                     });
    std::string body;
    events::ClientEventWriter writer(&body);
    for (const auto& ev : sorted) writer.Add(ev);
    std::string disk = Lz::Compress(body);
    ordered.disk_bytes = disk.size();
    ordered.touched_bytes = disk.size();
    ordered.map_tasks = blocks(ordered.disk_bytes);
    ordered.needs_group_by = false;  // sessions are physically contiguous
    ordered.answer = CountMatchingNames(body, query);
  }

  // ---- Layout C: RCFile columnar. ---------------------------------------
  LayoutRow rcfile{"rcfile columnar"};
  {
    std::string body;
    // The plain v1 layout (Lz per column, no zone maps or dictionaries):
    // §4.2 weighed RCFile as-published, without the fast path E18 adds
    // below. The frozen test writer and its names-column scan are the one
    // writer and reader of v1 left.
    landing_oracle::RowWriter writer(&body, 1024, 1);
    for (const auto& ev : all) writer.Add(ev);
    writer.Finish();
    rcfile.disk_bytes = body.size();
    rcfile.map_tasks = blocks(rcfile.disk_bytes);
    rcfile.needs_group_by = true;  // layout is still arrival-ordered
    // The names-only query decompresses just the event-name column.
    std::vector<std::string> names;
    if (!landing_oracle::ScanV1Names(body, &names, &rcfile.touched_bytes)
             .ok()) {
      return 1;
    }
    for (const auto& name : names) {
      if (query.Matches(name)) ++rcfile.answer;
    }
  }

  // ---- Layout D: session sequences. -------------------------------------
  LayoutRow seqs{"session sequences"};
  {
    sessions::EventHistogram hist;
    sessions::Sessionizer sessionizer;
    for (const auto& ev : all) {
      hist.Add(ev.event_name);
      sessionizer.Add(ev);
    }
    auto dict =
        sessions::EventDictionary::FromSortedCounts(hist.SortedByFrequency());
    std::string body;
    std::vector<sessions::SessionSequence> sequences;
    for (const auto& session : sessionizer.Build()) {
      auto seq = sessions::EncodeSession(session, *dict);
      sessions::AppendSequenceRecord(&body, *seq);
      sequences.push_back(std::move(*seq));
    }
    std::string disk = Lz::Compress(body);
    seqs.disk_bytes = disk.size();
    seqs.touched_bytes = disk.size();
    seqs.map_tasks = blocks(seqs.disk_bytes);
    seqs.needs_group_by = false;
    analytics::CountClientEvents udf(*dict, query);
    for (const auto& s : sequences) seqs.answer += udf.Count(s);
  }

  std::printf("names-only query: count events matching '*:click' "
              "(%zu events total, 256 KiB blocks)\n\n",
              all.size());
  std::printf("%-22s %12s %14s %10s %15s %9s\n", "layout", "on disk",
              "bytes touched", "map tasks", "needs group-by", "answer");
  for (const LayoutRow& row : {raw, ordered, rcfile, seqs}) {
    std::printf("%-22s %12s %14s %10llu %15s %9llu\n", row.name,
                HumanBytes(row.disk_bytes).c_str(),
                HumanBytes(row.touched_bytes).c_str(),
                static_cast<unsigned long long>(row.map_tasks),
                row.needs_group_by ? "YES" : "no",
                static_cast<unsigned long long>(row.answer));
  }

  const bool answers_agree = raw.answer == ordered.answer &&
                             raw.answer == rcfile.answer &&
                             raw.answer == seqs.answer;
  const bool ordered_shape =
      !ordered.needs_group_by && ordered.disk_bytes > raw.disk_bytes / 2;
  const bool rcfile_shape = rcfile.touched_bytes < raw.touched_bytes / 4 &&
                            rcfile.map_tasks >= raw.map_tasks / 2 &&
                            rcfile.needs_group_by;
  const bool seqs_shape = seqs.map_tasks <= rcfile.map_tasks &&
                          seqs.map_tasks <= ordered.map_tasks &&
                          seqs.touched_bytes < rcfile.touched_bytes &&
                          !seqs.needs_group_by;
  std::printf("\nshape checks (the paper's §4.2 reasoning):\n");
  std::printf("  all layouts give the same answer:                    %s\n",
              answers_agree ? "YES" : "NO");
  std::printf("  session-ordered kills group-by but not scans:        %s "
              "(disk %s vs raw %s)\n",
              ordered_shape ? "YES" : "NO",
              HumanBytes(ordered.disk_bytes).c_str(),
              HumanBytes(raw.disk_bytes).c_str());
  std::printf("  rcfile cuts per-task bytes but not mappers/group-by: %s "
              "(touched %s, tasks %llu vs %llu)\n",
              rcfile_shape ? "YES" : "NO",
              HumanBytes(rcfile.touched_bytes).c_str(),
              static_cast<unsigned long long>(rcfile.map_tasks),
              static_cast<unsigned long long>(raw.map_tasks));
  std::printf("  sequences fix both (fewest tasks, fewest bytes):     %s\n",
              seqs_shape ? "YES" : "NO");

  bool pushdown_ok = RunPushdownSection(all);
  return answers_agree && ordered_shape && rcfile_shape && seqs_shape &&
                 pushdown_ok
             ? 0
             : 1;
}
