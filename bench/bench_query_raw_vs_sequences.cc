// E6 (§4.2): the headline performance claim — "queries over session
// sequences are substantially faster than queries over the raw client
// event logs, both in terms of lower latency and higher throughput".
// Runs the same CTR-style event-count query two ways:
//   raw path:      MapReduce scan over the day's client event logs,
//                  project event name, group-by session — the job that
//                  "routinely spawned tens of thousands of mappers";
//   sequence path: scan of the 50x-smaller materialized sequences with a
//                  string-matching UDF.
// Reports simulated map tasks, bytes scanned, shuffle volume, modeled
// cluster wall time, and real local time.
//
// A third path rides along for the scan fast path (E18): the same day
// rewritten as columnar RCFile hour parts and queried through the
// dataflow pushdown scan (event-name predicate evaluated on dictionary
// ids, groups skipped wholesale). Answers must match the raw path and be
// thread-count invariant; results land in BENCH_scan.json.

#include <cstdio>
#include <map>

#include "analytics/udfs.h"
#include "bench_common.h"
#include "columnar/rcfile.h"
#include "common/fnv.h"
#include "dataflow/columnar_scan.h"
#include "dataflow/mapreduce.h"
#include "events/client_event.h"
#include "scribe/message.h"
#include "sessions/session_sequence.h"

namespace unilog {
namespace {

struct PathCost {
  uint64_t map_tasks = 0;
  uint64_t bytes_scanned = 0;
  uint64_t bytes_shuffled = 0;
  double modeled_ms = 0;
  double real_ms = 0;
  uint64_t answer = 0;  // matching-event count
};

// Raw path: scan every hourly partition, parse full events, group by
// session, count matches per session, then total.
PathCost RawPath(const bench::DayFixture& fx, const std::string& pattern_str,
                 const dataflow::JobCostModel& cost) {
  events::EventPattern pattern(pattern_str);
  bench::WallTimer timer;
  dataflow::MapReduceJob job(fx.warehouse.get(), cost);
  pipeline::DailyPipeline helper(fx.warehouse.get(), cost);
  for (const auto& dir : helper.HourDirsFor(bench::kBenchDay)) {
    if (!job.AddInputDir(dir).ok()) std::abort();
  }
  job.set_map([&pattern](const std::string& record,
                         dataflow::Emitter* e) -> Status {
    UNILOG_ASSIGN_OR_RETURN(events::ClientEvent ev,
                            events::ClientEvent::Deserialize(record));
    // Project onto the name, group by session (the paper's standard first
    // two operations).
    if (pattern.Matches(ev.event_name)) {
      e->Emit(std::to_string(ev.user_id) + "|" + ev.session_id, "1");
    }
    return Status::OK();
  });
  job.set_reduce([](const std::string& key,
                    const std::vector<std::string>& values,
                    dataflow::Emitter* e) -> Status {
    e->Emit(key, std::to_string(values.size()));
    return Status::OK();
  });
  auto out = job.Run();
  if (!out.ok()) std::abort();
  PathCost pc;
  for (const auto& [key, count] : *out) {
    pc.answer += static_cast<uint64_t>(std::stoull(count));
  }
  pc.map_tasks = job.stats().map_tasks;
  pc.bytes_scanned = job.stats().bytes_scanned;
  pc.bytes_shuffled = job.stats().bytes_shuffled;
  pc.modeled_ms = job.stats().modeled_ms;
  pc.real_ms = timer.ElapsedMs();
  return pc;
}

// Sequence path: map-only scan over the sequence partition with the
// CountClientEvents UDF (sessions are already materialized — no shuffle).
PathCost SequencePath(const bench::DayFixture& fx,
                      const std::string& pattern_str,
                      const dataflow::JobCostModel& cost) {
  bench::WallTimer timer;
  analytics::CountClientEvents udf(fx.daily.dictionary,
                                   events::EventPattern(pattern_str));
  dataflow::MapReduceJob job(fx.warehouse.get(), cost);
  if (!job.AddInputDir(sessions::SequenceStore::PartitionDir(bench::kBenchDay))
           .ok()) {
    std::abort();
  }
  // Sequence files are compressed blobs of concatenated records, not
  // framed; use a whole-file record and decode inside the map.
  dataflow::InputFormat format;
  format.decode = [](std::string_view body) -> Result<std::string> {
    return Lz::Decompress(body);
  };
  format.split =
      [](std::string_view decoded) -> Result<std::vector<std::string>> {
    return std::vector<std::string>{std::string(decoded)};
  };
  job.set_input_format(format);
  uint64_t total = 0;
  job.set_map([&udf, &total](const std::string& body,
                             dataflow::Emitter*) -> Status {
    sessions::SequenceRecordReader reader(body);
    sessions::SessionSequence seq;
    while (true) {
      Status st = reader.Next(&seq);
      if (st.IsNotFound()) break;
      UNILOG_RETURN_NOT_OK(st);
      total += udf.Count(seq);
    }
    return Status::OK();
  });
  auto out = job.Run();
  if (!out.ok()) std::abort();
  PathCost pc;
  pc.answer = total;
  pc.map_tasks = job.stats().map_tasks;
  pc.bytes_scanned = job.stats().bytes_scanned;
  pc.bytes_shuffled = job.stats().bytes_shuffled;
  pc.modeled_ms = job.stats().modeled_ms;
  pc.real_ms = timer.ElapsedMs();
  return pc;
}

// Rewrites each warehoused hour as one RCFile part under
// /columnar/client_events/... — the layout LogMoverOptions::
// columnar_categories would have produced.
Status MaterializeColumnarDay(bench::DayFixture* fx,
                              const dataflow::JobCostModel& cost) {
  pipeline::DailyPipeline helper(fx->warehouse.get(), cost);
  for (const auto& dir : helper.HourDirsFor(bench::kBenchDay)) {
    UNILOG_ASSIGN_OR_RETURN(auto files, fx->warehouse->ListRecursive(dir));
    std::string body;
    columnar::RcFileWriter writer(&body, /*rows_per_group=*/1024);
    for (const auto& file : files) {
      UNILOG_ASSIGN_OR_RETURN(std::string raw,
                              fx->warehouse->ReadFile(file.path));
      UNILOG_ASSIGN_OR_RETURN(std::string decoded, Lz::Decompress(raw));
      UNILOG_ASSIGN_OR_RETURN(auto records, scribe::UnframeMessages(decoded));
      for (const auto& record : records) {
        UNILOG_ASSIGN_OR_RETURN(events::ClientEvent ev,
                                events::ClientEvent::Deserialize(record));
        UNILOG_RETURN_NOT_OK(writer.Add(ev));
      }
    }
    UNILOG_RETURN_NOT_OK(writer.Finish());
    std::string out_dir = "/columnar" + dir.substr(strlen("/logs"));
    UNILOG_RETURN_NOT_OK(
        fx->warehouse->WriteFile(out_dir + "/part-00000", body));
  }
  return Status::OK();
}

// Order-sensitive digest over a relation's rows.
uint64_t RelationDigest(const dataflow::Relation& rel) {
  Fnv1a64 h;
  for (const auto& row : rel.rows()) {
    for (const auto& v : row) {
      h.Mix(v.ToString());
      h.Mix("\xff");
    }
  }
  return h.value();
}

struct PushdownRun {
  uint64_t answer = 0;
  uint64_t digest = 0;
  double real_ms = 0;
  columnar::ScanStats stats;
};

// One pushdown query: open the columnar scan, fuse the name predicate,
// materialize on `exec`.
Result<PushdownRun> PushdownQuery(const bench::DayFixture& fx,
                                  const std::string& pattern,
                                  exec::Executor* exec) {
  bench::WallTimer timer;
  UNILOG_ASSIGN_OR_RETURN(
      auto scan, dataflow::ColumnarEventScan::Open(fx.warehouse.get(),
                                                   "/columnar/client_events"));
  if (!scan->PushFilter("event_name", "matches",
                        dataflow::Value::Str(pattern))) {
    return Status::Internal("event-name pattern did not fuse");
  }
  UNILOG_ASSIGN_OR_RETURN(dataflow::Relation rel, scan->Materialize(exec));
  PushdownRun run;
  run.answer = rel.size();
  run.digest = RelationDigest(rel);
  run.real_ms = timer.ElapsedMs();
  run.stats = scan->last_stats();
  return run;
}

void PrintRow(const char* label, const PathCost& pc) {
  std::printf("  %-10s maps=%-5llu scanned=%-10s shuffled=%-10s "
              "modeled=%-9.0fms real=%-7.1fms answer=%llu\n",
              label, static_cast<unsigned long long>(pc.map_tasks),
              HumanBytes(pc.bytes_scanned).c_str(),
              HumanBytes(pc.bytes_shuffled).c_str(), pc.modeled_ms,
              pc.real_ms, static_cast<unsigned long long>(pc.answer));
}

}  // namespace
}  // namespace unilog

int main(int argc, char** argv) {
  using namespace unilog;
  int users = bench::ParseUsersFlag(&argc, argv);
  std::printf("=== E6 / §4.2: event-count query — raw client event logs vs "
              "session sequences ===\n\n");
  workload::WorkloadOptions wopts = bench::DefaultWorkload(42, users);
  wopts.extra_detail_pairs = 4;  // production-ish payloads
  // Small blocks and few cluster slots so the raw path splits into many
  // map waves, mirroring the paper's tens-of-thousands-of-mappers
  // economics at laptop scale (their jobs queued on a finite jobtracker
  // too — what matters is tasks >> slots).
  dataflow::JobCostModel cost;
  cost.cluster_slots = 8;
  hdfs::HdfsOptions hopts;
  hopts.block_size = 64 * 1024;
  bench::DayFixture fx = bench::BuildDay(wopts, cost, hopts);
  std::printf("day: %s events, raw logs %s on disk, %zu sequences\n\n",
              WithCommas(fx.daily.histogram.total_events()).c_str(),
              HumanBytes(fx.raw_log_bytes).c_str(),
              fx.daily.sequences.size());

  if (Status st = MaterializeColumnarDay(&fx, cost); !st.ok()) {
    std::fprintf(stderr, "columnar materialization failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }

  double worst_modeled_speedup = 1e18;
  bool pushdown_ok = true;
  Json queries = Json::Array();
  for (const char* pattern :
       {"*:impression", "web:home:mentions:*", "*:profile_click"}) {
    std::printf("query: count events matching %s\n", pattern);
    PathCost raw = RawPath(fx, pattern, cost);
    PathCost seq = SequencePath(fx, pattern, cost);
    PrintRow("raw", raw);
    PrintRow("sequences", seq);

    // Columnar pushdown at 1/2/8 threads: digests must agree across
    // thread counts and the answer must match the raw scan.
    PushdownRun serial;
    bool identical = true;
    for (int threads : {1, 2, 8}) {
      exec::ExecOptions eopts;
      eopts.threads = threads;
      exec::Executor executor(eopts);
      auto run = PushdownQuery(fx, pattern, &executor);
      if (!run.ok()) {
        std::fprintf(stderr, "pushdown query failed: %s\n",
                     run.status().ToString().c_str());
        return 1;
      }
      if (threads == 1) {
        serial = *run;
      } else {
        identical = identical && run->digest == serial.digest;
      }
    }
    bool answers_match = serial.answer == raw.answer;
    pushdown_ok = pushdown_ok && identical && answers_match;
    std::printf("  %-10s decompressed=%-9s pruned=%-7llu real=%-7.1fms "
                "answer=%llu\n",
                "columnar", HumanBytes(serial.stats.bytes_decompressed).c_str(),
                static_cast<unsigned long long>(serial.stats.rows_pruned),
                serial.real_ms,
                static_cast<unsigned long long>(serial.answer));

    double modeled_speedup = raw.modeled_ms / (seq.modeled_ms > 0 ? seq.modeled_ms : 1);
    double scan_reduction = static_cast<double>(raw.bytes_scanned) /
                            static_cast<double>(seq.bytes_scanned == 0
                                                    ? 1
                                                    : seq.bytes_scanned);
    std::printf("  -> modeled speedup %.1fx, scan reduction %.1fx, answers "
                "match: %s, pushdown matches raw at 1/2/8 threads: %s\n\n",
                modeled_speedup, scan_reduction,
                raw.answer == seq.answer ? "YES" : "NO",
                identical && answers_match ? "YES" : "NO");
    if (modeled_speedup < worst_modeled_speedup) {
      worst_modeled_speedup = modeled_speedup;
    }

    Json q = Json::Object();
    q.Set("pattern", Json::Str(pattern));
    q.Set("raw_answer", Json::Int(static_cast<int64_t>(raw.answer)));
    q.Set("pushdown_answer", Json::Int(static_cast<int64_t>(serial.answer)));
    q.Set("raw_bytes_scanned", Json::Int(static_cast<int64_t>(raw.bytes_scanned)));
    q.Set("pushdown_bytes_decompressed",
          Json::Int(static_cast<int64_t>(serial.stats.bytes_decompressed)));
    q.Set("rows_pruned", Json::Int(static_cast<int64_t>(serial.stats.rows_pruned)));
    q.Set("digests_identical_threads_1_2_8", Json::Bool(identical));
    q.Set("answers_match", Json::Bool(answers_match));
    queries.Push(std::move(q));
  }
  std::printf("shape check — sequences substantially faster on every query "
              "(worst modeled speedup %.1fx >= 5x): %s\n",
              worst_modeled_speedup,
              worst_modeled_speedup >= 5 ? "YES" : "NO");

  Json section = Json::Object();
  section.Set("queries", std::move(queries));
  section.Set("pass", Json::Bool(pushdown_ok));
  if (Status js = bench::MergeBenchJsonSection("BENCH_scan.json",
                                               "query_pushdown", section);
      !js.ok()) {
    std::fprintf(stderr, "BENCH_scan.json write failed: %s\n",
                 js.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_scan.json section 'query_pushdown'\n");
  return pushdown_ok ? 0 : 1;
}
