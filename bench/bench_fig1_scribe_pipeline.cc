// E1 (Figure 1): the Scribe delivery infrastructure end to end —
// daemons → aggregators → per-datacenter staging clusters → log mover →
// main warehouse — with fault injection (aggregator crash + staging HDFS
// outage). The paper claims the pipeline is "robust with respect to
// transient failures"; this harness quantifies delivery under three
// scenarios, prints the delivery-audit accounting for each (the identity
// logged == warehoused + every loss channel + in-flight must hold
// exactly), and dumps the unified metrics report.

#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "alloc_hooks.h"
#include "bench_common.h"
#include "obs/delivery_audit.h"
#include "pipeline/unified_pipeline.h"
#include "scribe/cluster.h"
#include "scribe/message.h"
#include "sim/simulator.h"

namespace unilog {
namespace {

using bench::kBenchDay;

struct ScenarioResult {
  scribe::ClusterStats stats;
  obs::DeliverySnapshot audit;
  bool audit_ok = false;
  uint64_t warehouse_files = 0;
  uint64_t staging_files_read = 0;
  uint64_t hours_moved = 0;
  std::string metrics_report;
  /// Warehouse contents, for the threads=1 vs threads=N identity check.
  std::map<std::string, std::string> warehouse;
};

ScenarioResult RunScenario(const std::string& name, bool crash_aggregator,
                           bool staging_outage, int ingest_threads = 1,
                           uint64_t seed = 1234) {
  Simulator sim(kBenchDay);
  pipeline::UnifiedPipelineOptions opts;
  opts.topology.datacenters = {"dc1", "dc2", "dc3"};
  opts.topology.aggregators_per_dc = 2;
  opts.topology.daemons_per_dc = 8;
  opts.scribe.roll_interval_ms = 30 * kMillisPerSecond;
  // Small enough that a 20-minute staging outage overflows the buffer,
  // exercising the dropped_overflow loss channel in the audit.
  opts.scribe.aggregator_buffer_limit_bytes = 256 * 1024;
  opts.mover.run_interval_ms = 5 * kMillisPerMinute;
  opts.mover.grace_ms = 2 * kMillisPerMinute;
  opts.seed = seed;
  opts.ingest_threads = ingest_threads;
  pipeline::UnifiedLoggingPipeline pipe(&sim, opts);
  if (!pipe.Start().ok()) std::abort();
  scribe::ScribeCluster& cluster = *pipe.cluster();

  // 3 hours of Poisson-ish traffic: 60k messages across 3 DCs.
  const int kMessages = 60000;
  const TimeMs kWindow = 3 * kMillisPerHour;
  Rng rng(seed ^ 7);
  TimeMs t = kBenchDay;
  for (int i = 0; i < kMessages; ++i) {
    t += static_cast<TimeMs>(rng.Exponential(
        static_cast<double>(kWindow) / kMessages));
    if (t >= kBenchDay + kWindow) t = kBenchDay + kWindow - 1;
    size_t dc = rng.Uniform(3);
    sim.At(t, [&cluster, dc, i]() {
      cluster.Log(dc, scribe::LogEntry{
                          "client_events",
                          "event-payload-" + std::to_string(i) +
                              std::string(120, 'x')});
    });
  }

  if (crash_aggregator) {
    sim.At(kBenchDay + 40 * kMillisPerMinute,
           [&cluster]() { cluster.CrashAggregator(0, 0); });
    sim.At(kBenchDay + 55 * kMillisPerMinute, [&cluster]() {
      if (!cluster.RestartAggregator(0, 0).ok()) std::abort();
    });
  }
  if (staging_outage) {
    sim.At(kBenchDay + 80 * kMillisPerMinute,
           [&cluster]() { cluster.SetStagingAvailable(1, false); });
    sim.At(kBenchDay + 100 * kMillisPerMinute,
           [&cluster]() { cluster.SetStagingAvailable(1, true); });
  }

  // The audit identity must hold *during* the faults, not only at the end.
  bool mid_run_balanced = true;
  for (TimeMs cp :
       {kBenchDay + 45 * kMillisPerMinute, kBenchDay + 90 * kMillisPerMinute,
        kBenchDay + 2 * kMillisPerHour}) {
    sim.At(cp, [&pipe, &mid_run_balanced]() {
      if (!pipe.CheckDeliveryAudit().ok()) mid_run_balanced = false;
    });
  }

  // Run until every closed hour has been moved.
  sim.RunUntil(kBenchDay + kWindow + 2 * kMillisPerHour);

  ScenarioResult result;
  result.stats = cluster.TotalStats();
  result.audit = pipe.Audit();
  result.audit_ok = mid_run_balanced && pipe.CheckDeliveryAudit().ok();
  result.hours_moved = cluster.mover()->stats().hours_moved;
  result.staging_files_read = cluster.mover()->stats().staging_files_read;
  result.metrics_report = pipe.MetricsTextReport();
  auto files = cluster.warehouse()->ListRecursive("/logs/client_events");
  result.warehouse_files = files.ok() ? files->size() : 0;
  if (files.ok()) {
    for (const auto& f : *files) {
      auto body = cluster.warehouse()->ReadFile(f.path);
      if (body.ok()) result.warehouse[f.path] = *body;
    }
  }

  std::printf(
      "%-22s logged=%-6llu delivered=%-6llu crash_lost=%-4llu "
      "overflow_dropped=%-4llu late_dropped=%-3llu rediscoveries=%-3llu "
      "warehouse_files=%-3llu hours_moved=%llu\n",
      name.c_str(),
      static_cast<unsigned long long>(result.stats.entries_logged),
      static_cast<unsigned long long>(result.stats.messages_in_warehouse),
      static_cast<unsigned long long>(result.stats.entries_lost_in_crashes),
      static_cast<unsigned long long>(result.stats.entries_dropped_overflow),
      static_cast<unsigned long long>(result.stats.late_entries_dropped),
      static_cast<unsigned long long>(result.stats.daemon_rediscoveries),
      static_cast<unsigned long long>(result.warehouse_files),
      static_cast<unsigned long long>(result.hours_moved));
  std::printf("  %s%s\n", result.audit.ToString().c_str(),
              result.audit_ok ? "" : "  <-- IMBALANCE");
  return result;
}

/// Prints only the fleet-level slices of the metrics report (per-host
/// daemon series are elided to keep the output readable).
void PrintReportExcerpt(const std::string& report) {
  size_t start = 0;
  while (start < report.size()) {
    size_t end = report.find('\n', start);
    if (end == std::string::npos) end = report.size();
    std::string line = report.substr(start, end - start);
    start = end + 1;
    if (line.rfind("counter daemon.", 0) == 0 ||
        line.rfind("gauge daemon.", 0) == 0 ||
        line.rfind("histogram daemon.", 0) == 0) {
      continue;
    }
    std::printf("  %s\n", line.c_str());
  }
}

// ---------------------------------------------------------------------------
// Ingest hot-path throughput: the mover's CPU kernel (decompress+unframe
// staged files, merge, frame+compress warehouse parts) measured two ways.
// "baseline" reproduces the seed serial path exactly: fresh strings and a
// fresh-state compressor per file/part. "shipped" is the mover's path:
// part slots kept across calls, reused hash-chain state, and unilog::exec
// fan-out — and must produce byte-identical part bytes.

struct IngestWorkload {
  std::vector<std::string> staged;  // compressed staged file bodies
  uint64_t uncompressed_bytes = 0;  // framed bytes the kernel processes
};

IngestWorkload BuildIngestWorkload(int files, int messages_per_file) {
  IngestWorkload w;
  Rng rng(99);
  for (int f = 0; f < files; ++f) {
    std::vector<std::string> msgs;
    for (int m = 0; m < messages_per_file; ++m) {
      std::string payload = "web:home:mentions:stream:avatar:profile_click|"
                            "f" + std::to_string(f) + "m" + std::to_string(m) +
                            "|";
      size_t noise = 40 + rng.Uniform(80);
      for (size_t i = 0; i < noise; ++i) {
        payload.push_back(static_cast<char>('a' + rng.Uniform(26)));
      }
      msgs.push_back(std::move(payload));
    }
    std::string framed = scribe::FrameMessages(msgs);
    w.uncompressed_bytes += framed.size();
    // Staged the way an aggregator rolls them.
    w.staged.push_back(Lz::FastCompressor().Compress(framed));
  }
  return w;
}

constexpr uint64_t kIngestTargetPartBytes = 64 * 1024;

/// Seed serial path: fresh allocations everywhere, fresh compressor state
/// per file and per part. Returns concatenated part bytes for identity.
std::string IngestBaselineRep(const IngestWorkload& w) {
  std::vector<std::string> merged;
  for (const std::string& file : w.staged) {
    auto raw = Lz::Decompress(file);
    if (!raw.ok()) std::abort();
    auto msgs = scribe::UnframeMessages(*raw);
    if (!msgs.ok()) std::abort();
    for (auto& m : *msgs) merged.push_back(std::move(m));
  }
  std::string sink;
  std::string body;
  uint64_t body_bytes = 0;
  // A compressor constructed per part allocates its hash-chain state
  // fresh, as the seed path did.
  auto compress_fresh = [](const std::string& part) {
    Lz::Compressor fresh;
    return fresh.Compress(part);
  };
  for (const std::string& m : merged) {
    scribe::AppendFramed(&body, m);
    body_bytes = body.size();
    if (body_bytes >= kIngestTargetPartBytes) {
      sink += compress_fresh(body);
      body = std::string();  // fresh buffer, as the seed path allocated
    }
  }
  if (!body.empty()) sink += compress_fresh(body);
  return sink;
}

/// Shipped path: the unstage fan-out and then BuildFramedParts, as
/// LogMover's staging merge runs them, into part slots kept across reps
/// as the mover keeps its slots across hours.
struct PartSlots {
  std::vector<std::string> framed, parts;
};

std::string IngestShippedRep(const IngestWorkload& w, exec::Executor* executor,
                             PartSlots* kept) {
  struct Slot {
    std::string raw;
    std::vector<std::string_view> messages;  // views into raw
  };
  std::vector<Slot> slots(w.staged.size());
  executor->ParallelFor("bench.unstage", w.staged.size(), [&](size_t i) {
    auto raw = Lz::Decompress(w.staged[i]);
    if (!raw.ok()) std::abort();
    slots[i].raw = std::move(*raw);
    if (!scribe::UnframeMessageViews(slots[i].raw, &slots[i].messages).ok()) {
      std::abort();
    }
  });
  std::vector<std::string_view> merged;
  for (const Slot& slot : slots) {
    merged.insert(merged.end(), slot.messages.begin(), slot.messages.end());
  }
  scribe::BuildFramedParts(executor, merged, kIngestTargetPartBytes,
                           &kept->framed, &kept->parts);
  std::string sink;
  for (const std::string& part : kept->parts) sink += part;
  return sink;
}

struct IngestMeasurement {
  double best_ms = 0;
  double mb_per_sec = 0;
  uint64_t allocs_per_rep = 0;
};

IngestMeasurement MeasureIngest(const IngestWorkload& w, int reps,
                                const std::function<std::string()>& rep,
                                std::string* out_bytes) {
  IngestMeasurement m;
  for (int r = 0; r < reps; ++r) {
    bench::AllocScope allocs;
    bench::WallTimer timer;
    std::string bytes = rep();
    double ms = timer.ElapsedMs();
    if (r == 0) {
      m.best_ms = ms;
      *out_bytes = std::move(bytes);
    } else if (ms < m.best_ms) {
      m.best_ms = ms;
    }
    m.allocs_per_rep = allocs.Delta();  // last rep: scratch warmed up
  }
  m.mb_per_sec = m.best_ms > 0
                     ? static_cast<double>(w.uncompressed_bytes) / 1e6 /
                           (m.best_ms / 1e3)
                     : 0;
  return m;
}

}  // namespace
}  // namespace unilog

int main(int argc, char** argv) {
  using namespace unilog;
  int threads = bench::ParseThreadsFlag(&argc, argv);
  uint64_t seed = bench::ParseSeedFlag(&argc, argv, 1234);
  std::printf(
      "=== E1 / Figure 1: Scribe delivery pipeline (3 DCs, 24 daemons, "
      "6 aggregators, 60k messages over 3h) ===\n");
  std::printf("seed: %llu (pass --seed=N to vary the run)\n",
              static_cast<unsigned long long>(seed));
  std::printf(
      "paper: robust, scalable delivery; daemons re-discover aggregators "
      "via ZooKeeper on crash;\n       aggregators buffer on HDFS outage; "
      "log mover slides whole hours atomically.\n");
  std::printf("ingest threads: %d (pass --threads=N to change)\n\n", threads);

  auto healthy = RunScenario("healthy", false, false, threads, seed);
  auto crash = RunScenario("aggregator-crash", true, false, threads, seed);
  auto outage = RunScenario("staging-outage", false, true, threads, seed);

  // Parallel staging must not change a single warehouse byte: re-run the
  // healthy scenario serially and diff the two warehouses.
  bool byte_identical = true;
  if (threads > 1) {
    auto serial = RunScenario("healthy-serial-check", false, false, 1, seed);
    byte_identical = serial.warehouse == healthy.warehouse;
  } else {
    auto parallel =
        RunScenario("healthy-parallel-check", false, false, 8, seed);
    byte_identical = parallel.warehouse == healthy.warehouse;
  }

  std::printf("\nshape checks:\n");
  bool healthy_lossless =
      healthy.stats.messages_in_warehouse == healthy.stats.entries_logged;
  double crash_loss_pct =
      100.0 * static_cast<double>(crash.stats.entries_lost_in_crashes) /
      static_cast<double>(crash.stats.entries_logged);
  std::printf("  healthy run lossless:               %s\n",
              healthy_lossless ? "YES" : "NO");
  std::printf(
      "  crash loss bounded to roll window:  %.2f%% of traffic\n",
      crash_loss_pct);
  std::printf("  daemons re-discovered after crash:  %s\n",
              crash.stats.daemon_rediscoveries >
                      healthy.stats.daemon_rediscoveries
                  ? "YES"
                  : "NO");
  std::printf(
      "  mover merged many staging files into few warehouse files: "
      "%llu -> %llu\n",
      static_cast<unsigned long long>(healthy.staging_files_read),
      static_cast<unsigned long long>(healthy.warehouse_files));
  bool all_balanced =
      healthy.audit_ok && crash.audit_ok && outage.audit_ok;
  std::printf(
      "  delivery audit balanced in all scenarios (incl. mid-fault): %s\n",
      all_balanced ? "YES" : "NO");
  std::printf(
      "  warehouse byte-identical across ingest thread counts:       %s\n",
      byte_identical ? "YES" : "NO");

  // --- Ingest hot-path throughput (seed serial vs shipped+parallel) ---
  std::printf("\n--- ingest hot path: mover CPU kernel, %d thread(s) ---\n",
              threads);
  IngestWorkload w = BuildIngestWorkload(/*files=*/48,
                                         /*messages_per_file=*/220);
  const int kReps = 5;
  std::string base_bytes, opt_serial_bytes, opt_bytes;
  IngestMeasurement base = MeasureIngest(
      w, kReps, [&w]() { return IngestBaselineRep(w); }, &base_bytes);

  exec::Executor serial_exec(exec::ExecOptions{.threads = 1});
  PartSlots slots_serial, slots_parallel;
  IngestMeasurement opt1 = MeasureIngest(
      w, kReps,
      [&]() { return IngestShippedRep(w, &serial_exec, &slots_serial); },
      &opt_serial_bytes);

  exec::Executor parallel_exec(exec::ExecOptions{.threads = threads});
  IngestMeasurement optn = MeasureIngest(
      w, kReps,
      [&]() { return IngestShippedRep(w, &parallel_exec, &slots_parallel); },
      &opt_bytes);

  bool kernel_identical = base_bytes == opt_serial_bytes &&
                          base_bytes == opt_bytes;
  double speedup_serial = opt1.best_ms > 0 ? base.best_ms / opt1.best_ms : 0;
  double speedup = optn.best_ms > 0 ? base.best_ms / optn.best_ms : 0;
  std::printf("%-28s %10s %10s %12s %9s\n", "path", "best_ms", "MB/s",
              "allocs/rep", "speedup");
  std::printf("%-28s %10.2f %10.1f %12llu %8.2fx\n",
              "baseline (seed serial)", base.best_ms, base.mb_per_sec,
              static_cast<unsigned long long>(base.allocs_per_rep), 1.0);
  std::printf("%-28s %10.2f %10.1f %12llu %8.2fx\n",
              "shipped (1 thread)", opt1.best_ms, opt1.mb_per_sec,
              static_cast<unsigned long long>(opt1.allocs_per_rep),
              speedup_serial);
  std::printf("%-28s %10.2f %10.1f %12llu %8.2fx\n",
              ("shipped (" + std::to_string(threads) + " threads)").c_str(),
              optn.best_ms, optn.mb_per_sec,
              static_cast<unsigned long long>(optn.allocs_per_rep), speedup);
  std::printf("  part bytes identical across all three paths: %s\n",
              kernel_identical ? "YES" : "NO");

  // The wall-clock floor only binds where the hardware can express it:
  // ISSUE acceptance asks ≥2x (floor 1.3x) on a multi-core host with
  // --threads>=4. On one core the deterministic checks above still bind.
  unsigned hw = std::thread::hardware_concurrency();
  bool floor_enforced = threads >= 4 && hw >= 4;
  bool floor_met = !floor_enforced || speedup >= 1.3;
  if (floor_enforced) {
    std::printf("  speedup floor (>=1.3x at %d threads, hw=%u): %s "
                "(%.2fx, target 2x)\n",
                threads, hw, floor_met ? "MET" : "MISSED", speedup);
  } else {
    std::printf("  speedup floor not enforced (threads=%d, hw=%u; needs "
                "both >=4)\n", threads, hw);
  }

  Json section = Json::Object();
  section.Set("threads", Json::Number(threads));
  section.Set("hardware_concurrency", Json::Number(static_cast<double>(hw)));
  section.Set("uncompressed_mb",
              Json::Number(static_cast<double>(w.uncompressed_bytes) / 1e6));
  section.Set("baseline_ms", Json::Number(base.best_ms));
  section.Set("baseline_mb_per_sec", Json::Number(base.mb_per_sec));
  section.Set("baseline_allocs_per_rep",
              Json::Number(static_cast<double>(base.allocs_per_rep)));
  section.Set("shipped_serial_ms", Json::Number(opt1.best_ms));
  section.Set("shipped_serial_mb_per_sec", Json::Number(opt1.mb_per_sec));
  section.Set("shipped_serial_allocs_per_rep",
              Json::Number(static_cast<double>(opt1.allocs_per_rep)));
  section.Set("shipped_parallel_ms", Json::Number(optn.best_ms));
  section.Set("shipped_parallel_mb_per_sec", Json::Number(optn.mb_per_sec));
  section.Set("shipped_parallel_allocs_per_rep",
              Json::Number(static_cast<double>(optn.allocs_per_rep)));
  section.Set("speedup_vs_baseline", Json::Number(speedup));
  section.Set("kernel_byte_identical", Json::Bool(kernel_identical));
  section.Set("warehouse_byte_identical", Json::Bool(byte_identical));
  section.Set("audit_balanced", Json::Bool(all_balanced));
  section.Set("floor_enforced", Json::Bool(floor_enforced));
  section.Set("floor_met", Json::Bool(floor_met));
  Status js = bench::MergeBenchJsonSection("BENCH_ingest.json",
                                           "fig1_scribe_pipeline", section);
  if (!js.ok()) {
    std::fprintf(stderr, "BENCH_ingest.json write failed: %s\n",
                 js.ToString().c_str());
  }

  std::printf(
      "\nunified metrics report (staging-outage scenario; per-host daemon "
      "series elided):\n");
  PrintReportExcerpt(outage.metrics_report);

  // This bench's contract: the audit identity, the byte-identity of the
  // parallel staging path, and (on capable hardware) the speedup floor.
  bool ok = all_balanced && byte_identical && kernel_identical && floor_met;
  if (!ok) {
    std::fprintf(stderr,
                 "CONTRACT VIOLATED — reproduce with --seed=%llu\n",
                 static_cast<unsigned long long>(seed));
  }
  return ok ? 0 : 1;
}
