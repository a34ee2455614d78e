#ifndef UNILOG_BENCH_E2E_HARNESS_H_
#define UNILOG_BENCH_E2E_HARNESS_H_

// Shared pieces of bench_e2e: host timers with allocation counts, the
// report every workload fills, the order-independent event digest, the
// four Oink workflows, and the bench's own reference answers for them.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "events/client_event.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "oink/workflow.h"
#include "workload/generator.h"

namespace unilog::e2e {

inline constexpr TimeMs kDay0 = 1345507200000;  // 2012-08-21 00:00 UTC
inline constexpr const char* kCategory = "client_events";
inline constexpr int kExecThreads = 2;

/// operator-new calls since process start (bench-local counter).
uint64_t AllocCount();

using Clock = std::chrono::steady_clock;

inline double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Host time and allocations spent in one layer's public calls, plus the
/// units (events, rows, parts) that work covered.
struct Tally {
  double ns = 0;
  uint64_t allocs = 0;
  uint64_t units = 0;

  double NsPerUnit() const { return units == 0 ? 0 : ns / units; }
  double AllocsPerUnit() const {
    return units == 0 ? 0 : static_cast<double>(allocs) / units;
  }
};

/// Runs `f`, charging its host time and allocations to `t` (when non-null)
/// and returning the nanoseconds it took.
template <typename F>
double Measure(Tally* t, uint64_t units, F&& f) {
  const uint64_t a0 = AllocCount();
  const Clock::time_point t0 = Clock::now();
  f();
  const double ns = NsSince(t0);
  if (t != nullptr) {
    t->ns += ns;
    t->allocs += AllocCount() - a0;
    t->units += units;
  }
  return ns;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for no samples.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

inline uint64_t Fnv64(std::string_view bytes,
                      uint64_t h = 1469598103934665603ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Multiset digest of serialized events: independent of the order events
/// land in, sensitive to any lost, duplicated or altered event.
struct EventDigest {
  uint64_t count = 0;
  uint64_t sum = 0;

  void Add(std::string_view serialized) {
    ++count;
    sum += Fnv64(serialized);
  }
  bool operator==(const EventDigest& o) const {
    return count == o.count && sum == o.sum;
  }
};

/// One metric as printed (`name value unit`) and written to JSON.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one invocation reports. Any failed check clears `correct`.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Output-defining counts and digests (rows landed, answer digests):
  /// identical for a seed on every run of the same code.
  std::map<std::string, std::string> counts;
  /// Per-repetition values behind the end-to-end medians.
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::string> errors;

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    errors.push_back(what);
  }
  void E2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a count, failing the run if repetitions disagree on it.
  void Count(const std::string& name, uint64_t value) {
    const std::string text = std::to_string(value);
    auto [it, inserted] = counts.emplace(name, text);
    Check(inserted || it->second == text,
          name + " differs between repetitions");
  }
};

/// What one invocation was asked to run.
struct RunSpec {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 15;
  bool trace = false;
};

/// A population of users logging two sessions per user-day over `hours`
/// hours from kDay0, seeded by `seed`.
workload::WorkloadOptions Population(uint64_t seed, int users, int hours,
                                     int64_t user_id_base = 1000000);

/// The four recurring workflows of E19 over hourly directories under
/// `root`: a click rollup, an impression volume count, one power user's
/// trace, and an ip slice (a residual filter the scan cannot push).
std::vector<oink::WorkflowSpec> Workflows(const std::string& root);
inline constexpr size_t kWorkflowCount = 4;

/// The four workflows' answers in a canonical, order-free form. Built from
/// generated events (the reference) or from engine results; two answers
/// agree exactly when their digests do.
struct Answer {
  std::map<int64_t, int64_t> clicks;
  std::map<std::string, int64_t> impressions;
  std::vector<std::pair<int64_t, std::string>> trace;
  std::vector<std::pair<int64_t, std::string>> ip_slice;

  void Add(const events::ClientEvent& ev);
  void Merge(const Answer& other);
  /// Folds in the engine's latest result of every workflow.
  Status AddResults(const oink::WorkflowEngine& engine);
  uint64_t Digest() const;
};

/// Directory of one warehouse hour for a period index (ms / hour).
std::string HourDir(const std::string& root, int64_t hour_index);

/// Peak resident set size of this process, MiB.
double PeakRssMib();

/// End-to-end samples of the measured untraced rounds. A round is a piece
/// of work every round of a run repeats on the same input (a whole ingest
/// run, one query_week cycle, one log_to_query run), cut the same way into
/// short slots (ten simulated minutes, one tick, one simulated hour), so
/// slot i of one round does exactly the work of slot i of any other.
struct EndToEnd {
  std::vector<double> setup_s;  // per repetition
  double events = 0;            // events one round handles
  /// Per round, host ns of each slot.
  std::vector<std::vector<double>> slot_ns;
  /// Per round, host ms of each hour of work: one simulated hour of
  /// ingest, one cold hourly tick, or one hour from its slide to its
  /// answer. With `parts_per_hour` > 1 the entries are parts of hours
  /// (the slots of a simulated hour of ingest), summed in order after
  /// their fastest times are taken.
  std::vector<std::vector<double>> hour_ms;
  int parts_per_hour = 1;
  /// events_per_s of each whole round, kept for the JSON samples.
  std::vector<double> round_eps;

  void AddRound(double round_events, std::vector<double> slots,
                std::vector<double> hours) {
    events = round_events;
    double ns = 0;
    for (double s : slots) ns += s;
    round_eps.push_back(round_events / (ns / 1e9));
    slot_ns.push_back(std::move(slots));
    hour_ms.push_back(std::move(hours));
  }
};

/// Per-layer accounting of the traced repetitions. Layers a workload does
/// not exercise stay zero.
struct Layers {
  uint64_t logged = 0;  // events logged by traced repetitions
  Tally serialize, deserialize, log, flush, frame_compress, produce, fetch;
  Tally mover_run, encode, decode, tick;
  /// The bench's own broker-batch capture in the current repetition; its
  /// time is taken out of the traced run time.
  Tally capture;
  double decode_stage_ms = 0, unstage_stage_ms = 0, build_parts_stage_ms = 0;
  double wire_bytes = 0, replicated_bytes = 0;
  double entries_produced = 0, produce_calls = 0;
  double broker_e2e_sim_ms_p50 = 0, broker_e2e_sim_ms_p99 = 0;
  double hour_slide_sim_ms_p50 = 0;
  uint64_t warehouse_bytes = 0, warehouse_parts = 0, warehouse_events = 0;
  Tally stats, scan, kernel, stage, serde;
  uint64_t cold_ticks = 0, cold_rows = 0, cold_scan_bytes = 0;
  uint64_t warm_ticks = 0, warm_workflows = 0, warm_hits = 0, warm_allocs = 0;
  uint64_t late_workflows = 0, late_hits = 0;
  std::vector<double> warm_tick_ms;
  std::vector<double> late_pass_ms;
  uint64_t sim_events = 0;
  double traced_run_ns = 0;
  /// Digest of the first repetition's warehouse bytes; every later
  /// repetition, traced or not, must land byte-identical parts.
  uint64_t warehouse_digest = 0;
  /// The first traced repetition also captures data and replays layers on
  /// it; its speed is left out of the tracing overhead.
  bool replayed = false;
  /// events_per_s of the untraced and traced rounds of a traced run.
  std::vector<double> untraced_eps, traced_eps;
};

void ReportEndToEnd(const EndToEnd& e2e, Report* report);
void ReportLayers(const Layers& layers, Report* report);

/// Calls rep(traced, warmup): first one untraced warm-up repetition
/// (checked, not measured, so caches fill and lazy set-up finishes); in a
/// traced run then the replaying traced repetition; then repetitions until
/// `spec.seconds` of wall time have passed — untraced only (at least
/// three) in an untraced run, untraced/traced pairs (at least two) in a
/// traced one, so both sides of the tracing overhead get as many rounds.
template <typename F>
void RepeatFor(const RunSpec& spec, F&& rep) {
  rep(false, true);
  if (spec.trace) rep(true, false);
  const Clock::time_point t0 = Clock::now();
  const int min_reps = spec.trace ? 4 : 3;
  for (int i = 0; i < 64; ++i) {
    const bool pair_done = !spec.trace || i % 2 == 0;
    if (i >= min_reps && pair_done && NsSince(t0) >= spec.seconds * 1e9) break;
    rep(spec.trace && i % 2 == 1, false);
  }
}

/// Re-runs every workflow's plan for one hour directory through the public
/// scan and kernel calls, timing each layer, and checks each result is
/// byte-identical to the engine's latest ResultFor.
void ReplayHour(hdfs::MiniHdfs* fs, const std::string& dir,
                const oink::WorkflowEngine& engine, exec::Executor* exec,
                Layers* layers, Report* report);

/// Workload entry points (each fills `report`).
void RunIngest(const RunSpec& spec, bool brokered, Report* report);
void RunLogToQuery(const RunSpec& spec, Report* report);
void RunQueryWeek(const RunSpec& spec, Report* report);

}  // namespace unilog::e2e

#endif  // UNILOG_BENCH_E2E_HARNESS_H_
