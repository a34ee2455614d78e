// query_week: a week of hourly RCFile v2 partitions answered by the four
// Oink workflows in five cycles of three passes per repetition — cold
// (fresh engine, empty cache), warm (fresh engine, every workflow a cache
// hit) and late (one late part lands in every 4th hour, whose workflows
// must recompute while the rest still hit). Ingest is idle; the load is on
// planner stats, scan, batch kernels and the artifact cache.

#include <functional>
#include <memory>

#include "columnar/rcfile.h"
#include "common/strings.h"
#include "harness.h"
#include "obs/metrics.h"

namespace unilog::e2e {
namespace {

constexpr int kWeekUsers = 1000;
constexpr int kCycles = 5;
constexpr int kWeekHours = 7 * 24;
constexpr int kLateUsers = 300;
constexpr int64_t kLateUserBase = 5000000;
constexpr int64_t kLateEvery = 4;
const std::string kRoot = "/warehouse/client_events";
const std::string kCacheRoot = oink::OinkOptions{}.cache_root;

/// Events written into the warehouse, with the reference answer of every
/// hour they touched.
struct Seeded {
  uint64_t events = 0;
  std::map<int64_t, Answer> answers;  // by hour index
};

/// Streams generated events (timestamp order, so hours arrive one after
/// another) into one RCFile part per hour named `part`.
Status WriteHours(const workload::WorkloadOptions& options, hdfs::MiniHdfs* fs,
                  const std::string& part,
                  const std::function<bool(int64_t)>& keep_hour, Tally* encode,
                  Seeded* out) {
  workload::WorkloadGenerator generator(options);
  int64_t hour = -1;
  std::string body;
  std::unique_ptr<columnar::RcFileWriter> writer;
  Status st;
  auto finish = [&] {
    if (writer == nullptr || !st.ok()) return;
    Measure(encode, 0, [&] { st = writer->Finish(); });
    if (st.ok()) st = fs->WriteFile(HourDir(kRoot, hour) + "/" + part, body);
    body.clear();
    writer.reset();
  };
  Status gen = generator.Generate([&](const events::ClientEvent& ev) {
    const int64_t idx = ev.timestamp / kMillisPerHour;
    if (!st.ok() || !keep_hour(idx)) return;
    if (idx != hour) {
      finish();
      hour = idx;
      writer = std::make_unique<columnar::RcFileWriter>(&body);
    }
    Measure(encode, 1, [&] { st = writer->Add(ev); });
    ++out->events;
    out->answers[idx].Add(ev);
  });
  finish();
  UNILOG_RETURN_NOT_OK(gen);
  return st;
}

/// Runs one pass of ticks through a fresh engine, checking every tick's
/// answers against `reference` and its cache verdict against `expect_hits`.
/// Appends the host ns spent inside each RunTick to `tick_ns` and returns
/// their sum.
double RunPass(hdfs::MiniHdfs* fs, exec::Executor* exec,
               const std::map<int64_t, uint64_t>& reference,
               const std::function<bool(int64_t)>& expect_hits,
               const std::function<void(oink::WorkflowEngine&, int64_t,
                                        double ns, uint64_t allocs)>& observe,
               std::vector<double>* tick_ns, Report* report) {
  oink::WorkflowEngine engine(fs, oink::OinkOptions{}, nullptr, exec);
  for (auto& wf : Workflows(kRoot)) {
    Status st = engine.AddWorkflow(std::move(wf));
    report->Check(st.ok(), "AddWorkflow: " + st.ToString());
  }
  double total_ns = 0;
  for (const auto& [idx, digest] : reference) {
    Status st;
    const uint64_t a0 = AllocCount();
    const double ns = Measure(nullptr, 0, [&] { st = engine.RunTick(idx); });
    const uint64_t allocs = AllocCount() - a0;
    total_ns += ns;
    tick_ns->push_back(ns);
    ++report->attempted;
    Answer answer;
    if (st.ok()) st = answer.AddResults(engine);
    const oink::TickStats& t = engine.last_tick();
    const bool hits = expect_hits(idx);
    const bool verdict_ok =
        hits ? t.cache_hits == kWorkflowCount && t.cache_misses == 0
             : t.cache_misses == kWorkflowCount && t.cache_hits == 0;
    if (!st.ok() || answer.Digest() != digest || !verdict_ok) {
      ++report->failed;
      const std::string why = !st.ok()      ? st.ToString()
                              : !verdict_ok ? "unexpected cache verdict"
                                            : "answer differs from reference";
      report->Check(false, "tick " + std::to_string(idx) + ": " + why);
      continue;
    }
    if (observe) observe(engine, idx, ns, allocs);
  }
  return total_ns;
}

void WeekRep(const RunSpec& spec, bool traced, bool warmup,
             exec::Executor* exec,
             EndToEnd* e2e, Layers* layers, Report* report) {
  Tally* encode = traced ? &layers->encode : nullptr;
  const bool replay = traced && !layers->replayed;
  const Clock::time_point setup0 = Clock::now();
  hdfs::MiniHdfs fs;
  Seeded base;
  Status st = WriteHours(Population(spec.seed, kWeekUsers, kWeekHours), &fs,
                         "part-00000", [](int64_t) { return true; }, encode,
                         &base);
  report->Check(st.ok(), "seed warehouse: " + st.ToString());
  const double setup_s = NsSince(setup0) / 1e9;

  std::map<int64_t, uint64_t> base_ref;
  for (const auto& [idx, answer] : base.answers) {
    base_ref[idx] = answer.Digest();
  }
  Seeded late;
  std::map<int64_t, uint64_t> late_ref;

  // Per cycle, host ns inside each RunTick of the three passes, and their
  // sum.
  std::vector<std::vector<double>> cycle_tick_ns;
  std::vector<double> cycle_ns;
  std::vector<std::vector<double>> cycle_cold_ms;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    std::vector<double> tick_ns, cold_ms;
    // Each cycle starts from the seeded week and an empty cache.
    if (fs.Exists(kCacheRoot)) st = fs.Delete(kCacheRoot, /*recursive=*/true);
    for (const auto& [idx, answer] : late.answers) {
      if (st.ok()) st = fs.Delete(HourDir(kRoot, idx) + "/part-late");
    }
    report->Check(st.ok(), "reset warehouse: " + st.ToString());

    uint64_t rows_seen = 0;
    double ns = RunPass(
        &fs, exec, base_ref, [](int64_t) { return false; },
        [&](oink::WorkflowEngine& engine, int64_t idx, double ns, uint64_t) {
          cold_ms.push_back(ns / 1e6);
          if (!traced) return;
          ++layers->cold_ticks;
          layers->cold_scan_bytes += engine.last_tick().scan_bytes_decompressed;
          const uint64_t rows =
              engine.metrics()->CounterTotal("columnar.rows_returned");
          layers->cold_rows += rows - rows_seen;
          rows_seen = rows;
          if (replay && cycle == 0 && idx % 7 == 0) {
            ReplayHour(&fs, HourDir(kRoot, idx), engine, exec, layers, report);
          }
        },
        &tick_ns, report);
    ns += RunPass(
        &fs, exec, base_ref, [](int64_t) { return true; },
        [&](oink::WorkflowEngine& engine, int64_t, double ns, uint64_t allocs) {
          if (!traced) return;
          const oink::TickStats& t = engine.last_tick();
          ++layers->warm_ticks;
          layers->warm_workflows += t.workflows;
          layers->warm_hits += t.cache_hits;
          layers->warm_allocs += allocs;
          layers->warm_tick_ms.push_back(ns / 1e6);
        },
        &tick_ns, report);

    late = Seeded{};
    st = WriteHours(
        Population(spec.seed + 1, kLateUsers, kWeekHours, kLateUserBase), &fs,
        "part-late", [](int64_t idx) { return idx % kLateEvery == 0; }, nullptr,
        &late);
    report->Check(st.ok(), "late parts: " + st.ToString());
    report->Check(late.answers.size() <= base.answers.size(),
                  "late events fell outside the seeded week");
    if (cycle == 0) {
      for (const auto& [idx, answer] : base.answers) {
        Answer merged = answer;
        if (auto it = late.answers.find(idx); it != late.answers.end()) {
          merged.Merge(it->second);
        }
        late_ref[idx] = merged.Digest();
      }
    }
    const double late_ns = RunPass(
        &fs, exec, late_ref,
        [&late](int64_t idx) { return late.answers.count(idx) == 0; },
        [&](oink::WorkflowEngine& engine, int64_t, double, uint64_t) {
          if (!traced) return;
          layers->late_workflows += engine.last_tick().workflows;
          layers->late_hits += engine.last_tick().cache_hits;
        },
        &tick_ns, report);
    if (traced) layers->late_pass_ms.push_back(late_ns / 1e6);
    cycle_ns.push_back(ns + late_ns);
    cycle_tick_ns.push_back(std::move(tick_ns));
    cycle_cold_ms.push_back(std::move(cold_ms));
  }

  uint64_t answers_digest = 0;
  for (const auto& refs : {base_ref, late_ref}) {
    for (const auto& [idx, digest] : refs) {
      answers_digest = Fnv64(std::to_string(digest), answers_digest + idx);
    }
  }
  report->Count("events_landed", base.events + late.events);
  report->Count("answers_digest", answers_digest);
  // Each cycle answers every hour three times, plus the late events.
  const double answered = 3.0 * static_cast<double>(base.events) +
                          static_cast<double>(late.events);
  if (!traced) {
    if (warmup) return;
    e2e->setup_s.push_back(setup_s);
    for (int c = 0; c < kCycles; ++c) {
      layers->untraced_eps.push_back(answered / (cycle_ns[c] / 1e9));
      e2e->AddRound(answered, std::move(cycle_tick_ns[c]),
                    std::move(cycle_cold_ms[c]));
    }
    return;
  }
  if (replay) {
    layers->replayed = true;
  } else {
    for (double ns : cycle_ns) {
      layers->traced_eps.push_back(answered / (ns / 1e9));
    }
  }

  // columnar decode + warehouse shape, over the seeded parts.
  auto files = fs.ListRecursive(kRoot);
  if (!files.ok()) return report->Check(false, files.status().ToString());
  layers->warehouse_parts = 0;
  layers->warehouse_bytes = 0;
  for (const auto& f : *files) {
    if (!EndsWith(f.path, "/part-00000")) continue;
    auto body = fs.ReadFile(f.path);
    std::vector<events::ClientEvent> evs;
    if (!body.ok()) return report->Check(false, body.status().ToString());
    Measure(&layers->decode, 0, [&] {
      st = columnar::RcFileReader(*body).ReadAll(columnar::kAllColumns, &evs);
    });
    layers->decode.units += evs.size();
    report->Check(st.ok(), "decode " + f.path + ": " + st.ToString());
    ++layers->warehouse_parts;
    layers->warehouse_bytes += f.size;
  }
  layers->warehouse_events = base.events;
}

}  // namespace

void RunQueryWeek(const RunSpec& spec, Report* report) {
  exec::Executor exec(exec::ExecOptions{kExecThreads});
  EndToEnd e2e;
  Layers layers;
  RepeatFor(spec, [&](bool traced, bool warmup) {
    WeekRep(spec, traced, warmup, &exec, &e2e, &layers, report);
  });
  ReportEndToEnd(e2e, report);
  ReportLayers(layers, report);
}

}  // namespace unilog::e2e
