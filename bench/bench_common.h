#ifndef UNILOG_BENCH_BENCH_COMMON_H_
#define UNILOG_BENCH_BENCH_COMMON_H_

// Shared setup for the experiment harnesses: synthesizes a day of client
// events straight into a simulated warehouse (bypassing Scribe — E1
// exercises delivery separately), then exposes the §4.2 daily-pipeline
// outputs that most experiments consume.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "columnar/rcfile.h"
#include "common/coding.h"
#include "common/compress.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/sim_time.h"
#include "events/client_event.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "pipeline/daily_pipeline.h"
#include "workload/generator.h"

namespace unilog::bench {

inline constexpr TimeMs kBenchDay = 1345507200000;  // 2012-08-21 00:00 UTC

/// A synthesized day: warehouse with /logs/client_events/... hourly
/// partitions, the generator (ground truth), and the daily pipeline output.
struct DayFixture {
  std::unique_ptr<hdfs::MiniHdfs> warehouse;
  std::unique_ptr<workload::WorkloadGenerator> generator;
  pipeline::UserTable users;
  pipeline::DailyJobResult daily;
  uint64_t raw_log_bytes = 0;  // compressed on-disk client event bytes
};

/// Varint-frames one record into a file body.
inline void AppendFramedRecord(std::string* body, const std::string& record) {
  PutVarint64(body, record.size());
  body->append(record);
}

/// Writes generated events into hourly warehouse partitions the way the
/// log mover would have (framed, compressed, files of ~`target_bytes`).
inline Status MaterializeWarehouseDay(
    workload::WorkloadGenerator* generator, hdfs::MiniHdfs* warehouse,
    uint64_t target_file_bytes = 1 << 20) {
  struct HourBuf {
    std::string body;
    int part = 0;
  };
  std::map<TimeMs, HourBuf> hours;
  auto flush = [&](TimeMs hour, HourBuf* buf) -> Status {
    if (buf->body.empty()) return Status::OK();
    char name[32];
    std::snprintf(name, sizeof(name), "part-%05d", buf->part++);
    std::string dir = "/logs/client_events/" + HourPartitionPath(hour);
    UNILOG_RETURN_NOT_OK(
        warehouse->WriteFile(dir + "/" + name, Lz::Compress(buf->body)));
    buf->body.clear();
    return Status::OK();
  };
  Status write_status;
  Status gen_status =
      generator->Generate([&](const events::ClientEvent& ev) {
        if (!write_status.ok()) return;
        TimeMs hour = TruncateToHour(ev.timestamp);
        HourBuf& buf = hours[hour];
        std::string record = ev.Serialize();
        AppendFramedRecord(&buf.body, record);
        if (buf.body.size() >= target_file_bytes) {
          write_status = flush(hour, &buf);
        }
      });
  UNILOG_RETURN_NOT_OK(gen_status);
  UNILOG_RETURN_NOT_OK(write_status);
  for (auto& [hour, buf] : hours) {
    UNILOG_RETURN_NOT_OK(flush(hour, &buf));
  }
  return Status::OK();
}

/// Writes generated events into hourly warehouse partitions as RCFile
/// parts (zone maps, dictionaries, embedded checksums) — the layout the
/// Oink memoization bench scans, and the one whose per-group checksums
/// give the engine header-only content fingerprints. Rows within an hour
/// are time-sorted so zone maps stay tight. Appends each non-empty hour's
/// start time to `hours_out` (sorted) when non-null.
inline Status MaterializeWarehouseHoursColumnar(
    workload::WorkloadGenerator* generator, hdfs::MiniHdfs* warehouse,
    const std::string& root = "/warehouse/client_events",
    size_t rows_per_part = 8192, std::vector<TimeMs>* hours_out = nullptr) {
  std::map<TimeMs, std::vector<events::ClientEvent>> hours;
  UNILOG_RETURN_NOT_OK(generator->Generate([&](const events::ClientEvent& ev) {
    hours[TruncateToHour(ev.timestamp)].push_back(ev);
  }));
  for (auto& [hour, rows] : hours) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const events::ClientEvent& a,
                        const events::ClientEvent& b) {
                       return a.timestamp < b.timestamp;
                     });
    std::string dir = root + "/" + HourPartitionPath(hour);
    int part = 0;
    for (size_t off = 0; off < rows.size(); off += rows_per_part) {
      std::string body;
      columnar::RcFileWriter writer(&body, /*rows_per_group=*/1024);
      size_t end = std::min(rows.size(), off + rows_per_part);
      for (size_t i = off; i < end; ++i) {
        UNILOG_RETURN_NOT_OK(writer.Add(rows[i]));
      }
      UNILOG_RETURN_NOT_OK(writer.Finish());
      char name[32];
      std::snprintf(name, sizeof(name), "part-%05d", part++);
      UNILOG_RETURN_NOT_OK(warehouse->WriteFile(dir + "/" + name, body));
    }
    if (hours_out != nullptr) hours_out->push_back(hour);
  }
  return Status::OK();
}

/// Builds the standard fixture: generate → materialize → daily pipeline.
/// Aborts on failure (bench setup, not library code).
inline DayFixture BuildDay(workload::WorkloadOptions wopts,
                           dataflow::JobCostModel cost = {},
                           hdfs::HdfsOptions hdfs_options = {},
                           uint64_t target_file_bytes = 1 << 20) {
  DayFixture fx;
  fx.warehouse = std::make_unique<hdfs::MiniHdfs>(nullptr, hdfs_options);
  fx.generator = std::make_unique<workload::WorkloadGenerator>(wopts);
  Status st = MaterializeWarehouseDay(fx.generator.get(), fx.warehouse.get(),
                                      target_file_bytes);
  if (!st.ok()) {
    std::fprintf(stderr, "bench setup failed: %s\n", st.ToString().c_str());
    std::abort();
  }
  fx.users = pipeline::UserTable::FromWorkload(*fx.generator);
  pipeline::DailyPipeline daily(fx.warehouse.get(), cost);
  auto result = daily.RunForDate(kBenchDay, fx.users);
  if (!result.ok()) {
    std::fprintf(stderr, "daily pipeline failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  fx.daily = std::move(result).value();
  auto files = fx.warehouse->ListRecursive("/logs/client_events");
  for (const auto& f : *files) fx.raw_log_bytes += f.size;
  return fx;
}

/// Default workload for macro experiments.
inline workload::WorkloadOptions DefaultWorkload(uint64_t seed = 42,
                                                 int users = 400) {
  workload::WorkloadOptions wopts;
  wopts.seed = seed;
  wopts.num_users = users;
  wopts.start = kBenchDay;
  wopts.duration = kMillisPerDay - 2 * kMillisPerHour;
  wopts.sessions_per_user_mean = 2.0;
  wopts.events_per_session_mean = 18;
  return wopts;
}

/// Wall-clock timer for macro measurements.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Extracts a `--threads=N` flag from argv (removing it so google-benchmark
/// never sees it). Returns 1 when absent.
inline int ParseThreadsFlag(int* argc, char** argv) {
  int threads = 1;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
      if (threads < 1) threads = 1;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return threads;
}

/// Extracts a `--users=N` flag from argv (removing it so google-benchmark
/// never sees it). Returns `fallback` when absent; CI smoke runs pass a
/// small N so the bench finishes in seconds.
inline int ParseUsersFlag(int* argc, char** argv, int fallback = 400) {
  int users = fallback;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--users=", 8) == 0) {
      users = std::atoi(argv[i] + 8);
      if (users < 1) users = 1;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return users;
}

/// Extracts a `--seed=N` flag from argv (removing it so google-benchmark
/// never sees it). Returns `fallback` when absent. Every fault-injecting
/// bench threads this single seed through its simulator, workload, and
/// fault schedule, and prints it whenever a contract or SLO is violated,
/// so any failing run reproduces exactly with `--seed=N`.
inline uint64_t ParseSeedFlag(int* argc, char** argv, uint64_t fallback = 42) {
  uint64_t seed = fallback;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return seed;
}

/// Extracts an integer `--<name>=N` flag from argv (removing it). Returns
/// `fallback` when absent.
inline long long ParseIntFlag(int* argc, char** argv, const char* name,
                              long long fallback) {
  long long value = fallback;
  size_t len = std::strlen(name);
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      value = std::atoll(argv[i] + len + 1);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return value;
}

/// Extracts a boolean `--<name>` switch from argv (removing it). Returns
/// true when present (e.g. bench_soak_slo's `--inject-loss`).
inline bool ParseSwitchFlag(int* argc, char** argv, const char* name) {
  bool found = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      found = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return found;
}

/// Merges `section` into the JSON object document at `path` under `key`,
/// creating the file when absent — so several benches can contribute
/// sections to one machine-readable report (BENCH_scan.json).
inline Status MergeBenchJsonSection(const std::string& path,
                                    const std::string& key, Json section) {
  Json doc = Json::Object();
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    auto parsed = Json::Parse(text);
    if (parsed.ok() && parsed->is_object()) doc = std::move(*parsed);
  }
  doc.Set(key, std::move(section));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  std::string text = doc.Dump();
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

/// Runs `work` (which must return a checksum of its output) under the
/// unilog::exec engine at 1, 2, 4, and 8 threads, printing wall time and
/// speedup vs the serial engine and verifying the checksum never changes.
/// Each configuration takes the best of `reps` runs.
inline void SpeedupReport(
    const char* title,
    const std::function<uint64_t(exec::Executor*)>& work, int reps = 3) {
  std::printf("--- %s: unilog::exec speedup ---\n", title);
  std::printf("%8s %12s %9s  %s\n", "threads", "best_ms", "speedup", "output");
  double serial_ms = 0;
  uint64_t serial_sum = 0;
  for (int threads : {1, 2, 4, 8}) {
    exec::ExecOptions opts;
    opts.threads = threads;
    exec::Executor executor(opts);
    double best_ms = 0;
    uint64_t checksum = 0;
    for (int rep = 0; rep < reps; ++rep) {
      WallTimer timer;
      checksum = work(&executor);
      double ms = timer.ElapsedMs();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    if (threads == 1) {
      serial_ms = best_ms;
      serial_sum = checksum;
    }
    std::printf("%8d %12.2f %8.2fx  %s\n", threads, best_ms,
                best_ms > 0 ? serial_ms / best_ms : 0.0,
                checksum == serial_sum ? "identical" : "MISMATCH!");
  }
  std::printf("\n");
}

}  // namespace unilog::bench

#endif  // UNILOG_BENCH_BENCH_COMMON_H_
