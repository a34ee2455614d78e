// E19 (§3, Oink): memoized re-execution and shared warehouse scans.
//
// Oink runs "hundreds of periodic jobs", many of which re-scan the same
// hourly client-event data with overlapping plans. This bench builds a
// 7-day synthetic warehouse of hourly RCFile partitions, registers
// four recurring workflows over the same hours, and measures three ways
// of running every (hour × workflow) tick:
//
//   baseline — one engine per workflow, with a cache root of its own that
//              no later pass reads: every workflow scans its input alone
//              (the pre-Oink status quo);
//   cold     — cache on + shared scans on, empty cache: same-directory
//              workflows ride one union scan, results are written to the
//              content-addressed cache under /warehouse/_cache;
//   warm     — a *fresh* engine over the same warehouse: every plan
//              fingerprint hits, nothing is scanned;
//   re-tick  — one engine runs every tick twice and the second round is
//              measured: each hit is a lookup in the engine's memos of
//              part fingerprints and verified artifacts, and reads no
//              warehouse byte.
//
// All three must produce byte-identical per-workflow results at 1, 2 and
// 8 executor threads (results are folded into an order-sensitive digest
// every tick). After the warm pass, one late part is appended to a single
// hour and every tick re-run: exactly that hour's readers may recompute.
//
// Exits nonzero — CI runs this as a smoke test — when any digest
// diverges, the warm pass scans more than half the cold pass's bytes
// (the ≥2x acceptance floor; in practice warm scans zero bytes), the
// warm or re-tick pass misses, the re-tick round reads a warehouse byte,
// or the late part invalidates more than one hour. The baseline digest
// is the cold recomputation every hit is compared against, so an
// under-keyed plan fails the run.
// Results land in BENCH_oink.json section "oink_reuse".

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/fnv.h"
#include "dataflow/relation.h"
#include "dataflow/relation_serde.h"
#include "oink/workflow.h"

namespace unilog {
namespace {

void FnvMix(Fnv1a64* h, const std::string& bytes) {
  std::string framed;
  PutVarint64(&framed, bytes.size());
  framed += bytes;
  h->Mix(framed);
}

std::string HourInputDir(int64_t hour_index) {
  return "/warehouse/client_events/" +
         HourPartitionPath(hour_index * kMillisPerHour);
}

// The four recurring workflows, all over the same hourly directory — a
// shared-scan group of four on every cold tick. Mix of pushed predicates
// (globs, user-id equality), a residual ip filter, projections, and
// group-by stages.
std::vector<oink::WorkflowSpec> MakeWorkflows() {
  using dataflow::Value;
  std::vector<oink::WorkflowSpec> specs;

  oink::WorkflowSpec clicks;
  clicks.name = "hourly-click-rollup";
  clicks.input_dir = HourInputDir;
  clicks.filters = {{"event_name", "matches", Value::Str("*:click")}};
  clicks.project_cols = {"user_id"};
  clicks.project_names = {"uid"};
  clicks.stage = [](const dataflow::Relation& r) {
    return r.GroupBy({"uid"}, {dataflow::Aggregate{
                                  dataflow::Aggregate::Op::kCount, "", "n"}});
  };
  clicks.stage_id = "click-rollup-v1";
  specs.push_back(std::move(clicks));

  oink::WorkflowSpec impressions;
  impressions.name = "impression-volume";
  impressions.input_dir = HourInputDir;
  impressions.filters = {{"event_name", "matches", Value::Str("*:impression")}};
  impressions.project_cols = {"event_name"};
  impressions.project_names = {"name"};
  impressions.stage = [](const dataflow::Relation& r) {
    return r.GroupBy({"name"}, {dataflow::Aggregate{
                                   dataflow::Aggregate::Op::kCount, "", "n"}});
  };
  impressions.stage_id = "impression-volume-v1";
  specs.push_back(std::move(impressions));

  oink::WorkflowSpec trace;
  trace.name = "power-user-trace";
  trace.input_dir = HourInputDir;
  trace.filters = {{"user_id", "==", Value::Int(1000003)}};
  trace.project_cols = {"timestamp", "event_name"};
  trace.project_names = {"ts", "name"};
  specs.push_back(std::move(trace));

  oink::WorkflowSpec ip_slice;  // residual filter: ip never pushes
  ip_slice.name = "ip-slice";
  ip_slice.input_dir = HourInputDir;
  ip_slice.filters = {{"ip", "==", Value::Str("10.0.0.2")}};
  ip_slice.project_cols = {"user_id", "event_name"};
  ip_slice.project_names = {"uid", "name"};
  specs.push_back(std::move(ip_slice));

  return specs;
}

struct PassResult {
  double wall_ms = 0;
  uint64_t scan_bytes = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t shared_groups = 0;
  uint64_t shared_fanout = 0;
  uint64_t bytes_saved = 0;
  /// Warehouse bytes read (MiniHdfs::bytes_read) during the pass.
  uint64_t bytes_read = 0;
  Fnv1a64 digest;
  bool ok = false;
};

// Runs every tick through fresh engines, folding each workflow's
// serialized result into the digest after every tick. With
// `engine_per_workflow` each workflow gets its own engine, so no two plans
// share a scan; otherwise one engine runs them all. With `primed` the
// engines first run every tick once, unmeasured, so the pass measures
// same-engine re-ticks.
PassResult RunPass(hdfs::MiniHdfs* fs, const std::vector<int64_t>& ticks,
                   oink::OinkOptions options, exec::Executor* exec,
                   bool engine_per_workflow = false, bool primed = false) {
  PassResult r;
  std::vector<std::unique_ptr<oink::WorkflowEngine>> engines;
  std::vector<std::string> names;
  std::vector<const oink::WorkflowEngine*> owners;
  for (auto& spec : MakeWorkflows()) {
    if (engines.empty() || engine_per_workflow) {
      engines.push_back(
          std::make_unique<oink::WorkflowEngine>(fs, options, nullptr, exec));
    }
    names.push_back(spec.name);
    owners.push_back(engines.back().get());
    Status st = engines.back()->AddWorkflow(std::move(spec));
    if (!st.ok()) {
      std::fprintf(stderr, "AddWorkflow: %s\n", st.ToString().c_str());
      return r;
    }
  }
  for (size_t i = 0; primed && i < ticks.size(); ++i) {
    for (auto& engine : engines) {
      Status st = engine->RunTick(ticks[i]);
      if (!st.ok()) {
        std::fprintf(stderr, "priming RunTick(%lld): %s\n",
                     static_cast<long long>(ticks[i]), st.ToString().c_str());
        return r;
      }
    }
  }
  const uint64_t read0 = fs->bytes_read();
  bench::WallTimer timer;
  for (int64_t tick : ticks) {
    for (auto& engine : engines) {
      Status st = engine->RunTick(tick);
      if (!st.ok()) {
        std::fprintf(stderr, "RunTick(%lld): %s\n",
                     static_cast<long long>(tick), st.ToString().c_str());
        return r;
      }
      const oink::TickStats& t = engine->last_tick();
      r.scan_bytes += t.scan_bytes_decompressed;
      r.hits += t.cache_hits;
      r.misses += t.cache_misses;
      r.shared_groups += t.shared_scan_groups;
      r.shared_fanout += t.shared_scan_fanout;
      r.bytes_saved += t.bytes_saved;
    }
    for (size_t i = 0; i < names.size(); ++i) {
      auto rel = owners[i]->ResultFor(names[i]);
      if (!rel.ok()) {
        std::fprintf(stderr, "ResultFor(%s): %s\n", names[i].c_str(),
                     rel.status().ToString().c_str());
        return r;
      }
      FnvMix(&r.digest, dataflow::SerializeRelation(*rel));
    }
  }
  r.wall_ms = timer.ElapsedMs();
  r.bytes_read = fs->bytes_read() - read0;
  r.ok = true;
  return r;
}

bool ClearCache(hdfs::MiniHdfs* fs, const std::string& root) {
  if (!fs->Exists(root)) return true;
  return fs->Delete(root, true).ok();
}

}  // namespace
}  // namespace unilog

int main(int argc, char** argv) {
  using namespace unilog;
  int users = bench::ParseUsersFlag(&argc, argv, 250);

  std::printf("=== E19 / §3: Oink memoization + shared warehouse scans ===\n");
  std::printf("(7-day synthetic workload, %d users)\n\n", users);

  // Seven days of hourly RCFile partitions.
  workload::WorkloadOptions wopts;
  wopts.seed = 42;
  wopts.num_users = users;
  wopts.start = bench::kBenchDay;
  wopts.duration = 7 * kMillisPerDay;
  wopts.sessions_per_user_mean = 14.0;  // ~2 per day
  wopts.events_per_session_mean = 18;
  workload::WorkloadGenerator generator(wopts);
  hdfs::MiniHdfs fs;
  std::vector<TimeMs> hours;
  Status st = bench::MaterializeWarehouseHoursColumnar(
      &generator, &fs, "/warehouse/client_events", 8192, &hours);
  if (!st.ok()) {
    std::fprintf(stderr, "materialize failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::vector<int64_t> ticks;
  for (TimeMs hour : hours) ticks.push_back(hour / kMillisPerHour);
  uint64_t warehouse_bytes = 0;
  auto listing = fs.ListRecursive("/warehouse/client_events");
  if (!listing.ok()) return 1;
  for (const auto& f : *listing) warehouse_bytes += f.size;
  std::printf("warehouse: %zu hourly partitions, %s columnar, %zu workflows "
              "-> %zu ticks/pass\n\n",
              ticks.size(), HumanBytes(warehouse_bytes).c_str(),
              MakeWorkflows().size(), ticks.size());

  oink::OinkOptions baseline_opts;
  baseline_opts.cache_root = "/warehouse/_baseline_cache";
  oink::OinkOptions oink_opts;

  // Serial results feed the report; 2- and 8-thread repeats must match
  // their digests bit for bit.
  PassResult baseline, cold, warm, retick;
  bool digests_identical = true;
  bool reticks_ok = true;
  std::printf("%8s %12s %12s %12s %12s  %s\n", "threads", "baseline_ms",
              "cold_ms", "warm_ms", "retick_ms", "digests");
  for (int threads : {1, 2, 8}) {
    exec::ExecOptions eopts;
    eopts.threads = threads;
    exec::Executor executor(eopts);
    if (!ClearCache(&fs, baseline_opts.cache_root) ||
        !ClearCache(&fs, oink_opts.cache_root)) {
      return 1;
    }
    PassResult b = RunPass(&fs, ticks, baseline_opts, &executor,
                           /*engine_per_workflow=*/true);
    PassResult c = RunPass(&fs, ticks, oink_opts, &executor);
    PassResult w = RunPass(&fs, ticks, oink_opts, &executor);
    PassResult t = RunPass(&fs, ticks, oink_opts, &executor,
                           /*engine_per_workflow=*/false, /*primed=*/true);
    if (!b.ok || !c.ok || !w.ok || !t.ok) return 1;
    bool same = b.digest.value() == c.digest.value() &&
                c.digest.value() == w.digest.value() &&
                w.digest.value() == t.digest.value();
    if (threads == 1) {
      baseline = b;
      cold = c;
      warm = w;
      retick = t;
    } else {
      same = same && b.digest.value() == baseline.digest.value();
    }
    digests_identical = digests_identical && same;
    reticks_ok = reticks_ok && t.misses == 0 &&
                 t.hits == ticks.size() * MakeWorkflows().size() &&
                 t.bytes_read == 0;
    std::printf("%8d %12.2f %12.2f %12.2f %12.2f  %s\n", threads, b.wall_ms,
                c.wall_ms, w.wall_ms, t.wall_ms,
                same ? "identical" : "MISMATCH!");
  }

  uint64_t total_jobs = ticks.size() * MakeWorkflows().size();
  double hit_rate = total_jobs > 0
                        ? static_cast<double>(warm.hits) /
                              static_cast<double>(total_jobs)
                        : 0.0;
  double bytes_reduction =
      warm.scan_bytes > 0 ? static_cast<double>(cold.scan_bytes) /
                                static_cast<double>(warm.scan_bytes)
                          : static_cast<double>(cold.scan_bytes);
  std::printf("\nbytes decompressed/pass: baseline %s, cold %s "
              "(shared scans: %llu unions x avg fanout %.1f), warm %s\n",
              HumanBytes(baseline.scan_bytes).c_str(),
              HumanBytes(cold.scan_bytes).c_str(),
              static_cast<unsigned long long>(cold.shared_groups),
              cold.shared_groups > 0
                  ? static_cast<double>(cold.shared_fanout) /
                        static_cast<double>(cold.shared_groups)
                  : 0.0,
              HumanBytes(warm.scan_bytes).c_str());
  std::printf("warm pass: %llu/%llu hits (%.0f%%), %s of cold scan work "
              "avoided\n",
              static_cast<unsigned long long>(warm.hits),
              static_cast<unsigned long long>(total_jobs), hit_rate * 100.0,
              HumanBytes(warm.bytes_saved).c_str());
  std::printf("same-engine re-tick: %llu/%llu hits, %s of warehouse read "
              "(want 0), %.2f ms\n",
              static_cast<unsigned long long>(retick.hits),
              static_cast<unsigned long long>(total_jobs),
              HumanBytes(retick.bytes_read).c_str(), retick.wall_ms);

  // Late data: one extra part lands in a single mid-range hour. Only that
  // hour's four readers may miss on the next pass.
  size_t late_index = ticks.size() / 2;
  TimeMs late_hour = hours[late_index];
  {
    workload::WorkloadOptions lopts;
    lopts.seed = 77;
    lopts.num_users = 8;
    lopts.start = late_hour;
    lopts.duration = kMillisPerHour;
    lopts.sessions_per_user_mean = 1.0;
    lopts.events_per_session_mean = 6;
    workload::WorkloadGenerator late(lopts);
    std::string dir =
        "/warehouse/client_events/" + HourPartitionPath(late_hour);
    std::string body;
    columnar::RcFileWriter writer(&body, 1024);
    Status gen = late.Generate([&](const events::ClientEvent& ev) {
      if (TruncateToHour(ev.timestamp) == late_hour) writer.Add(ev);
    });
    if (!gen.ok() || !writer.Finish().ok()) return 1;
    if (!fs.WriteFile(dir + "/part-late", body).ok()) return 1;
  }
  exec::ExecOptions eopts;
  eopts.threads = 2;
  exec::Executor executor(eopts);
  PassResult incremental = RunPass(&fs, ticks, oink_opts, &executor);
  if (!incremental.ok) return 1;
  size_t per_tick = MakeWorkflows().size();
  bool invalidation_ok = incremental.misses == per_tick &&
                         incremental.hits == total_jobs - per_tick;
  std::printf("late part in hour %zu/%zu: %llu misses (want %zu), "
              "%llu hits, %s rescanned vs %s cold\n",
              late_index, ticks.size(),
              static_cast<unsigned long long>(incremental.misses), per_tick,
              static_cast<unsigned long long>(incremental.hits),
              HumanBytes(incremental.scan_bytes).c_str(),
              HumanBytes(cold.scan_bytes).c_str());

  bool reduction_ok =
      warm.scan_bytes * 2 <= cold.scan_bytes && cold.scan_bytes > 0;
  bool pass = digests_identical && reduction_ok && warm.hits == total_jobs &&
              warm.misses == 0 && reticks_ok && invalidation_ok;
  std::printf("\nbytes-scanned reduction cold->warm: %.1fx (floor 2.0x)\n",
              bytes_reduction);
  std::printf("baseline == cold == warm == re-tick at 1/2/8 threads: %s\n",
              digests_identical ? "YES" : "NO");
  std::printf("verdict: %s\n", pass ? "PASS" : "FAIL");

  Json section = Json::Object();
  section.Set("users", Json::Int(users));
  section.Set("hours", Json::Int(static_cast<int64_t>(ticks.size())));
  section.Set("workflows", Json::Int(static_cast<int64_t>(per_tick)));
  section.Set("warehouse_bytes", Json::Int(static_cast<int64_t>(warehouse_bytes)));
  section.Set("baseline_ms", Json::Number(baseline.wall_ms));
  section.Set("cold_ms", Json::Number(cold.wall_ms));
  section.Set("warm_ms", Json::Number(warm.wall_ms));
  section.Set("baseline_bytes_decompressed",
              Json::Int(static_cast<int64_t>(baseline.scan_bytes)));
  section.Set("cold_bytes_decompressed",
              Json::Int(static_cast<int64_t>(cold.scan_bytes)));
  section.Set("warm_bytes_decompressed",
              Json::Int(static_cast<int64_t>(warm.scan_bytes)));
  section.Set("bytes_reduction", Json::Number(bytes_reduction));
  section.Set("shared_scan_unions",
              Json::Int(static_cast<int64_t>(cold.shared_groups)));
  section.Set("shared_scan_fanout",
              Json::Int(static_cast<int64_t>(cold.shared_fanout)));
  section.Set("warm_hits", Json::Int(static_cast<int64_t>(warm.hits)));
  section.Set("warm_hit_rate", Json::Number(hit_rate));
  section.Set("warm_bytes_saved",
              Json::Int(static_cast<int64_t>(warm.bytes_saved)));
  section.Set("late_part_misses",
              Json::Int(static_cast<int64_t>(incremental.misses)));
  section.Set("late_part_bytes_rescanned",
              Json::Int(static_cast<int64_t>(incremental.scan_bytes)));
  section.Set("digests_identical_threads_1_2_8",
              Json::Bool(digests_identical));
  section.Set("pass", Json::Bool(pass));
  Status js =
      bench::MergeBenchJsonSection("BENCH_oink.json", "oink_reuse", section);
  if (!js.ok()) {
    std::fprintf(stderr, "BENCH_oink.json write failed: %s\n",
                 js.ToString().c_str());
    return 1;
  }
  std::printf("wrote BENCH_oink.json section 'oink_reuse'\n");
  return pass ? 0 : 1;
}
