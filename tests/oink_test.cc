// Tests for the Oink workflow manager: periodic scheduling, dependency
// ordering, retries, and execution traces (§3).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "columnar/rcfile.h"
#include "common/compress.h"
#include "common/rng.h"
#include "dataflow/relation_serde.h"
#include "events/client_event.h"
#include "hdfs/mini_hdfs.h"
#include "obs/metrics.h"
#include "oink/artifact_cache.h"
#include "oink/oink.h"
#include "oink/workflow.h"
#include "oink_oracle.h"
#include "sim/simulator.h"

namespace unilog::oink {
namespace {

constexpr TimeMs kT0 = 1345507200000;  // 2012-08-21 00:00
constexpr TimeMs kHour = kMillisPerHour;

TEST(OinkTest, RegistrationValidation) {
  Simulator sim(kT0);
  Oink oink(&sim);
  JobSpec a;
  a.name = "a";
  a.period = kHour;
  a.run = [](TimeMs) { return Status::OK(); };
  ASSERT_TRUE(oink.RegisterJob(a).ok());
  EXPECT_TRUE(oink.RegisterJob(a).IsAlreadyExists());

  JobSpec bad = a;
  bad.name = "";
  EXPECT_TRUE(oink.RegisterJob(bad).IsInvalidArgument());
  bad = a;
  bad.name = "b";
  bad.run = nullptr;
  EXPECT_TRUE(oink.RegisterJob(bad).IsInvalidArgument());
  bad = a;
  bad.name = "c";
  bad.period = 0;
  EXPECT_TRUE(oink.RegisterJob(bad).IsInvalidArgument());
  bad = a;
  bad.name = "d";
  bad.dependencies = {"d"};
  EXPECT_TRUE(oink.RegisterJob(bad).IsInvalidArgument());
  bad = a;
  bad.name = "e";
  bad.dependencies = {"unregistered"};
  EXPECT_TRUE(oink.RegisterJob(bad).IsNotFound());
}

TEST(OinkTest, HourlyJobRunsEachPeriod) {
  Simulator sim(kT0);
  Oink oink(&sim);
  std::vector<TimeMs> periods;
  JobSpec job;
  job.name = "hourly";
  job.period = kHour;
  job.start_delay = kMillisPerMinute;
  job.run = [&](TimeMs period_start) {
    periods.push_back(period_start);
    return Status::OK();
  };
  ASSERT_TRUE(oink.RegisterJob(job).ok());
  oink.Start(kT0);
  sim.RunUntil(kT0 + 3 * kHour + 30 * kMillisPerMinute);
  ASSERT_EQ(periods.size(), 3u);
  EXPECT_EQ(periods[0], kT0);
  EXPECT_EQ(periods[1], kT0 + kHour);
  EXPECT_EQ(periods[2], kT0 + 2 * kHour);
  EXPECT_EQ(oink.runs_succeeded(), 3u);
  EXPECT_TRUE(oink.Completed("hourly", kT0));
  EXPECT_FALSE(oink.Completed("hourly", kT0 + 3 * kHour));
}

TEST(OinkTest, DependencyGatesExecution) {
  // "if job B requires data generated by job A, then Oink will schedule A,
  // verify that A has successfully completed, and then schedule job B".
  Simulator sim(kT0);
  Oink oink(&sim);
  std::vector<std::string> order;
  int a_fails_remaining = 2;

  JobSpec a;
  a.name = "log_mover_dependent";
  a.period = kHour;
  a.retry_interval = 2 * kMillisPerMinute;
  a.run = [&](TimeMs) -> Status {
    if (a_fails_remaining > 0) {
      --a_fails_remaining;
      return Status::Unavailable("upstream not ready");
    }
    order.push_back("A");
    return Status::OK();
  };
  ASSERT_TRUE(oink.RegisterJob(a).ok());

  JobSpec b;
  b.name = "aggregates";
  b.period = kHour;
  b.dependencies = {"log_mover_dependent"};
  b.retry_interval = 2 * kMillisPerMinute;
  b.run = [&](TimeMs) {
    order.push_back("B");
    return Status::OK();
  };
  ASSERT_TRUE(oink.RegisterJob(b).ok());

  oink.Start(kT0);
  sim.RunUntil(kT0 + kHour + 30 * kMillisPerMinute);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "A");
  EXPECT_EQ(order[1], "B");
  EXPECT_GE(oink.dependency_waits(), 1u);  // B waited for A's retries
  EXPECT_EQ(oink.runs_failed(), 2u);
}

TEST(OinkTest, TracesRecordOutcomes) {
  Simulator sim(kT0);
  Oink oink(&sim);
  bool failed_once = false;
  JobSpec job;
  job.name = "flaky";
  job.period = kHour;
  job.retry_interval = kMillisPerMinute;
  job.run = [&](TimeMs) -> Status {
    if (!failed_once) {
      failed_once = true;
      return Status::Internal("transient");
    }
    return Status::OK();
  };
  ASSERT_TRUE(oink.RegisterJob(job).ok());
  oink.Start(kT0);
  sim.RunUntil(kT0 + kHour + 10 * kMillisPerMinute);

  auto traces = oink.TracesFor("flaky");
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_FALSE(traces[0].success);
  EXPECT_NE(traces[0].message.find("transient"), std::string::npos);
  EXPECT_TRUE(traces[1].success);
  EXPECT_GE(traces[1].started_at, traces[0].finished_at);
  EXPECT_EQ(traces[0].period_start, kT0);
}

TEST(OinkTest, MaxAttemptsGivesUpAndMovesOn) {
  Simulator sim(kT0);
  Oink oink(&sim);
  std::vector<TimeMs> attempts;
  JobSpec job;
  job.name = "doomed";
  job.period = kHour;
  job.retry_interval = kMillisPerMinute;
  job.max_attempts = 3;
  job.run = [&](TimeMs period) -> Status {
    attempts.push_back(period);
    return Status::Internal("always fails");
  };
  ASSERT_TRUE(oink.RegisterJob(job).ok());
  oink.Start(kT0);
  sim.RunUntil(kT0 + 2 * kHour + 30 * kMillisPerMinute);
  // 3 attempts for period 0, then 3 for period 1.
  ASSERT_EQ(attempts.size(), 6u);
  EXPECT_EQ(attempts[2], kT0);
  EXPECT_EQ(attempts[3], kT0 + kHour);
  EXPECT_FALSE(oink.Completed("doomed", kT0));
}

TEST(OinkTest, RegistrationAfterStartRejected) {
  Simulator sim(kT0);
  Oink oink(&sim);
  oink.Start(kT0);
  JobSpec job;
  job.name = "late";
  job.period = kHour;
  job.run = [](TimeMs) { return Status::OK(); };
  EXPECT_TRUE(oink.RegisterJob(job).IsFailedPrecondition());
}

TEST(OinkTest, DailyJobChainOverThreeDays) {
  Simulator sim(kT0);
  Oink oink(&sim);
  int histogram_runs = 0, sequence_runs = 0;
  JobSpec histogram;
  histogram.name = "histogram";
  histogram.period = kMillisPerDay;
  histogram.run = [&](TimeMs) {
    ++histogram_runs;
    return Status::OK();
  };
  ASSERT_TRUE(oink.RegisterJob(histogram).ok());
  JobSpec sequences;
  sequences.name = "session_sequences";
  sequences.period = kMillisPerDay;
  sequences.dependencies = {"histogram"};
  sequences.run = [&](TimeMs) {
    ++sequence_runs;
    return Status::OK();
  };
  ASSERT_TRUE(oink.RegisterJob(sequences).ok());
  oink.Start(kT0);
  sim.RunUntil(kT0 + 3 * kMillisPerDay + kHour);
  EXPECT_EQ(histogram_runs, 3);
  EXPECT_EQ(sequence_runs, 3);
}

// ---------------------------------------------------------------------------
// ArtifactCache: content-addressed store under /warehouse/_cache.

class ArtifactCacheTest : public ::testing::Test {
 protected:
  CacheArtifact MakeArtifact(const std::string& manifest, size_t payload_size,
                             char fill = 'p') {
    CacheArtifact a;
    a.manifest = manifest;
    a.cold_cost_bytes = 1000;
    a.payload = std::string(payload_size, fill);
    return a;
  }

  hdfs::MiniHdfs fs_;
};

TEST_F(ArtifactCacheTest, PutGetRoundTrip) {
  ArtifactCache cache(&fs_);
  CacheArtifact art = MakeArtifact("m1", 500);
  ASSERT_TRUE(cache.Put("k1", art).ok());
  auto got = cache.Get("k1", "m1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got->payload, art.payload);
  EXPECT_EQ(got->cold_cost_bytes, 1000u);
  // The entry this cache just wrote is memoized: the hit reads nothing.
  EXPECT_EQ(fs_.bytes_read(), 0u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_TRUE(fs_.Exists("/warehouse/_cache/k1.okc"));
}

TEST_F(ArtifactCacheTest, MissThenStaleThenCorrupt) {
  ArtifactCache cache(&fs_);
  EXPECT_TRUE(cache.Get("nope", "m").status().IsNotFound());
  EXPECT_EQ(cache.misses(), 1u);

  ASSERT_TRUE(cache.Put("k", MakeArtifact("m-old", 100)).ok());
  // Stale: stored manifest no longer matches — entry dropped, miss.
  EXPECT_TRUE(cache.Get("k", "m-new").status().IsNotFound());
  EXPECT_EQ(cache.stale_entries(), 1u);
  EXPECT_FALSE(fs_.Exists("/warehouse/_cache/k.okc"));

  // Corrupt: flip one byte mid-file — dropped, never served.
  ASSERT_TRUE(cache.Put("k", MakeArtifact("m", 100)).ok());
  auto raw = fs_.ReadFile("/warehouse/_cache/k.okc");
  ASSERT_TRUE(raw.ok());
  std::string flipped = *raw;
  flipped[flipped.size() / 2] ^= 0x40;
  ASSERT_TRUE(fs_.Delete("/warehouse/_cache/k.okc").ok());
  ASSERT_TRUE(fs_.WriteFile("/warehouse/_cache/k.okc", flipped).ok());
  EXPECT_TRUE(cache.Get("k", "m").status().IsNotFound());
  EXPECT_EQ(cache.corrupt_entries(), 1u);
  EXPECT_FALSE(fs_.Exists("/warehouse/_cache/k.okc"));
  // The cache repairs itself on the next Put.
  ASSERT_TRUE(cache.Put("k", MakeArtifact("m", 100)).ok());
  EXPECT_TRUE(cache.Get("k", "m").ok());
}

TEST_F(ArtifactCacheTest, LruEvictionHonorsByteBudgetAndRecency) {
  ArtifactCacheOptions options;
  options.byte_budget = 1;  // every new entry evicts all colder ones
  ArtifactCache cache(&fs_, options);
  ASSERT_TRUE(cache.Put("a", MakeArtifact("m", 200, 'a')).ok());
  ASSERT_TRUE(cache.Put("b", MakeArtifact("m", 200, 'b')).ok());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(fs_.Exists("/warehouse/_cache/a.okc"));
  EXPECT_TRUE(fs_.Exists("/warehouse/_cache/b.okc"));
  EXPECT_TRUE(cache.Get("a", "m").status().IsNotFound());
  EXPECT_TRUE(cache.Get("b", "m").ok());
}

TEST_F(ArtifactCacheTest, RecentlyUsedEntrySurvivesEviction) {
  ArtifactCacheOptions options;
  // Roomy enough for two compressed entries, not three (each incompressible
  // payload stores at ~520 bytes framed).
  options.byte_budget = 1200;
  ArtifactCache cache(&fs_, options);
  Rng rng(5);
  auto incompressible = [&rng](size_t n) {
    std::string s;
    for (size_t i = 0; i < n; ++i) {
      s.push_back(static_cast<char>(rng.Next64() & 0xff));
    }
    return s;
  };
  CacheArtifact a = MakeArtifact("m", 0);
  a.payload = incompressible(500);
  CacheArtifact b = MakeArtifact("m", 0);
  b.payload = incompressible(500);
  CacheArtifact c = MakeArtifact("m", 0);
  c.payload = incompressible(500);
  ASSERT_TRUE(cache.Put("a", a).ok());
  ASSERT_TRUE(cache.Put("b", b).ok());
  // Touch "a" so "b" is now the coldest.
  ASSERT_TRUE(cache.Get("a", "m").ok());
  ASSERT_TRUE(cache.Put("c", c).ok());
  EXPECT_TRUE(cache.Get("b", "m").status().IsNotFound());
  EXPECT_TRUE(cache.Get("a", "m").ok());
  EXPECT_TRUE(cache.Get("c", "m").ok());
}

TEST_F(ArtifactCacheTest, RebuildsIndexFromPersistedFiles) {
  {
    ArtifactCache cache(&fs_);
    ASSERT_TRUE(cache.Put("k1", MakeArtifact("m", 300)).ok());
  }
  ArtifactCache fresh(&fs_);
  auto got = fresh.Get("k1", "m");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got->payload, std::string(300, 'p'));
  EXPECT_GT(fresh.resident_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// WorkflowEngine: memoization, shared scans, invalidation, and cache hits
// checked against the cold-recompute oracle.

class WorkflowEngineTest : public ::testing::Test {
 protected:
  static std::string HourDir(int64_t hour) {
    return "/warehouse/client_events/hour-" + std::to_string(hour);
  }

  /// One deterministic columnar part for `hour`; `salt` varies content.
  void WriteHour(int64_t hour, int salt = 0,
                 const std::string& part = "part-00000", int rows = 96) {
    std::string body;
    columnar::RcFileWriter writer(&body, 16);
    for (int i = 0; i < rows; ++i) {
      events::ClientEvent ev;
      ev.initiator = static_cast<events::EventInitiator>(i % 2);
      ev.event_name = (i + salt) % 3 == 0 ? "web:home:::tweet:click"
                                          : "web:home:::tweet:impression";
      ev.user_id = 100 + (i + salt) % 6;
      ev.session_id = "s" + std::to_string(i % 4);
      ev.ip = "10.0.0.2";
      ev.timestamp = kT0 + hour * kHour + static_cast<TimeMs>(i) * 30000;
      ASSERT_TRUE(writer.Add(ev).ok());
    }
    ASSERT_TRUE(writer.Finish().ok());
    ASSERT_TRUE(fs_.WriteFile(HourDir(hour) + "/" + part, body).ok());
  }

  WorkflowSpec ClickCounts(const std::string& name) {
    WorkflowSpec wf;
    wf.name = name;
    wf.input_dir = [](int64_t i) { return HourDir(i); };
    wf.filters = {{"event_name", "==",
                   dataflow::Value::Str("web:home:::tweet:click")}};
    wf.project_cols = {"user_id"};
    wf.project_names = {"uid"};
    wf.stage = [](const dataflow::Relation& r) {
      return r.GroupBy({"uid"}, {dataflow::Aggregate{
                                    dataflow::Aggregate::Op::kCount, "", "n"}});
    };
    wf.stage_id = "click-counts-v1";
    return wf;
  }

  WorkflowSpec Window(const std::string& name, int64_t lo_min, int64_t hi_min) {
    WorkflowSpec wf;
    wf.name = name;
    wf.input_dir = [](int64_t i) { return HourDir(i); };
    wf.filters = {
        {"timestamp", ">=", dataflow::Value::Int(kT0 + lo_min * 60000)},
        {"timestamp", "<", dataflow::Value::Int(kT0 + hi_min * 60000)}};
    return wf;
  }

  std::string ResultBytes(WorkflowEngine& engine, const std::string& name) {
    auto rel = engine.ResultFor(name);
    EXPECT_TRUE(rel.ok()) << rel.status().ToString();
    return rel.ok() ? dataflow::SerializeRelation(*rel) : std::string();
  }

  hdfs::MiniHdfs fs_;
};

TEST_F(WorkflowEngineTest, AddWorkflowValidation) {
  WorkflowEngine engine(&fs_);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("a")).ok());
  EXPECT_TRUE(engine.AddWorkflow(ClickCounts("a")).IsAlreadyExists());

  WorkflowSpec bad = ClickCounts("b");
  bad.input_dir = nullptr;
  EXPECT_TRUE(engine.AddWorkflow(bad).IsInvalidArgument());

  bad = ClickCounts("c");
  bad.project_names = {};
  EXPECT_TRUE(engine.AddWorkflow(bad).IsInvalidArgument());

  bad = ClickCounts("d");
  bad.filters.push_back({"no_such_column", "==", dataflow::Value::Int(1)});
  EXPECT_TRUE(engine.AddWorkflow(bad).IsInvalidArgument());

  bad = ClickCounts("e");
  bad.stage_id.clear();
  EXPECT_TRUE(engine.AddWorkflow(bad).IsInvalidArgument());

  bad = ClickCounts("f");
  // `matches` on a non-name column cannot push and cannot run residually.
  bad.filters.push_back({"session_id", "matches", dataflow::Value::Str("s*")});
  EXPECT_TRUE(engine.AddWorkflow(bad).IsInvalidArgument());

  // Unpushable-but-residual clause on a real column is fine.
  WorkflowSpec ok = ClickCounts("g");
  ok.filters.push_back({"session_id", "==", dataflow::Value::Str("s1")});
  EXPECT_TRUE(engine.AddWorkflow(ok).ok());
}

// Canonical plans are the plan half of every cache key, so their text is
// pinned byte for byte: residual literals of each type (the real one by its
// bit pattern, so -0.0 is not 0.0), residuals in canonical order whatever
// the registration order, late projection, and a plan whose every clause
// and projection pushed into the scan.
TEST_F(WorkflowEngineTest, CanonicalPlanTextIsPinned) {
  using dataflow::Value;
  WorkflowEngine engine(&fs_);
  WorkflowSpec residuals = ClickCounts("residuals");
  residuals.filters = {
      {"timestamp", "!=", Value::Real(-0.0)},
      {"session_id", "==", Value::Bool(true)},
      {"user_id", ">", Value::Int(7)},
      {"event_name", "==", Value::Str("web:home:::tweet:click")},
      {"ip", "==", Value::Str("10.0.0.2")},
      {"user_id", "!=", Value::Int(-3)},
      {"timestamp", "<", Value::Real(1.5)},
  };
  ASSERT_TRUE(engine.AddWorkflow(residuals).ok());
  WorkflowSpec pushed = ClickCounts("pushed");
  pushed.filters = {{"event_name", "matches", Value::Str("web:*:click")},
                    {"timestamp", ">=", Value::Int(kT0)},
                    {"timestamp", "<", Value::Int(kT0 + kHour)},
                    {"user_id", "==", Value::Int(101)}};
  ASSERT_TRUE(engine.AddWorkflow(pushed).ok());

  EXPECT_EQ(engine.CanonicalPlanFor("residuals").value(),
            "spec=scanspec-v1{cols=3f;min_ts=-;max_ts=-;"
            "names=(web:home:::tweet:click);patterns=();uids=-}\n"
            "visible=initiator:0,event_name:1,user_id:2,session_id:3,ip:4,"
            "timestamp:5,\n"
            "residuals=ip == s:8:10.0.0.2;session_id == b:1;"
            "timestamp != r:8000000000000000;"
            "timestamp < r:3ff8000000000000;user_id != i:-3;user_id > i:7;\n"
            "late_project=user_id->uid,\n"
            "stage=click-counts-v1");
  EXPECT_EQ(engine.CanonicalPlanFor("pushed").value(),
            "spec=scanspec-v1{cols=4;min_ts=1345507200000;"
            "max_ts=1345510799999;names=-;patterns=(web:*:click);"
            "uids=(101)}\n"
            "visible=uid:2,\n"
            "residuals=-\n"
            "late_project=-\n"
            "stage=click-counts-v1");
}

// Manifest content tokens (`rcfp:` for RCFile parts, `fnv:` for any other
// file) and the content-addressed artifact name are pinned too: a change
// to either would orphan every artifact already in a cache.
TEST_F(WorkflowEngineTest, ManifestTokensAndArtifactNamesArePinned) {
  WriteHour(0);
  ASSERT_TRUE(fs_.WriteFile(HourDir(1) + "/part-opaque", "opaque").ok());
  WorkflowEngine engine(&fs_);
  EXPECT_EQ(engine.DirManifest(HourDir(0)).value(),
            "manifest-v1\n/warehouse/client_events/hour-0/part-00000 "
            "rcfp:42242cc2b2b8202d\n");
  EXPECT_EQ(engine.DirManifest(HourDir(1)).value(),
            "manifest-v1\n/warehouse/client_events/hour-1/part-opaque "
            "fnv:47233efd4b05df50\n");
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  auto artifacts = fs_.ListRecursive("/warehouse/_cache");
  ASSERT_TRUE(artifacts.ok());
  std::vector<std::string> names;
  for (const auto& a : *artifacts) names.push_back(a.path);
  EXPECT_EQ(names, std::vector<std::string>{
                       "/warehouse/_cache/077469cdaf74c1cf.okc"});
}

TEST_F(WorkflowEngineTest, ColdThenWarmTickIsByteIdenticalAndScanFree) {
  WriteHour(0);
  WorkflowEngine engine(&fs_);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());

  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_misses, 1u);
  EXPECT_EQ(engine.last_tick().cache_hits, 0u);
  EXPECT_GT(engine.last_tick().scan_bytes_decompressed, 0u);
  std::string cold = ResultBytes(engine, "clicks");
  ASSERT_FALSE(cold.empty());

  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_hits, 1u);
  EXPECT_EQ(engine.last_tick().cache_misses, 0u);
  // The warm tick never opened a scan.
  EXPECT_EQ(engine.last_tick().scan_bytes_decompressed, 0u);
  EXPECT_GT(engine.last_tick().bytes_saved, 0u);
  EXPECT_EQ(ResultBytes(engine, "clicks"), cold);
}

TEST_F(WorkflowEngineTest, CacheSurvivesEngineRestart) {
  WriteHour(0);
  std::string cold;
  {
    WorkflowEngine engine(&fs_);
    ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
    ASSERT_TRUE(engine.RunTick(0).ok());
    cold = ResultBytes(engine, "clicks");
  }
  WorkflowEngine fresh(&fs_);
  ASSERT_TRUE(fresh.AddWorkflow(ClickCounts("clicks")).ok());
  ASSERT_TRUE(fresh.RunTick(0).ok());
  EXPECT_EQ(fresh.last_tick().cache_hits, 1u);
  EXPECT_EQ(fresh.last_tick().cache_misses, 0u);
  EXPECT_EQ(ResultBytes(fresh, "clicks"), cold);
}

TEST_F(WorkflowEngineTest, EditingOneInputInvalidatesOnlyItsReaders) {
  WriteHour(7);
  WriteHour(8);
  WorkflowEngine engine(&fs_);
  WorkflowSpec a = ClickCounts("reads7");
  a.input_dir = [](int64_t) { return HourDir(7); };
  WorkflowSpec b = ClickCounts("reads8");
  b.input_dir = [](int64_t) { return HourDir(8); };
  ASSERT_TRUE(engine.AddWorkflow(a).ok());
  ASSERT_TRUE(engine.AddWorkflow(b).ok());

  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_misses, 2u);
  std::string r7 = ResultBytes(engine, "reads7");

  // A late part lands in hour 8 only.
  WriteHour(8, /*salt=*/3, "part-00001");
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_hits, 1u);    // hour 7: untouched
  EXPECT_EQ(engine.last_tick().cache_misses, 1u);  // hour 8: recomputed
  EXPECT_EQ(ResultBytes(engine, "reads7"), r7);
}

TEST_F(WorkflowEngineTest, IdenticalPlansCollapseToOneComputation) {
  WriteHour(0);
  WorkflowEngine engine(&fs_);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("twin1")).ok());
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("twin2")).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().workflows, 2u);
  // One key, probed once, computed once.
  EXPECT_EQ(engine.last_tick().cache_misses, 1u);
  EXPECT_EQ(ResultBytes(engine, "twin1"), ResultBytes(engine, "twin2"));
}

TEST_F(WorkflowEngineTest, SharedScanMatchesIndependentAndScansLess) {
  WriteHour(0);
  std::vector<WorkflowSpec> specs = {ClickCounts("clicks"),
                                     Window("early", 0, 20),
                                     Window("residual", 5, 45)};
  specs[2].filters.push_back({"session_id", "==", dataflow::Value::Str("s1")});
  specs[2].project_cols = {"event_name", "timestamp"};
  specs[2].project_names = {"n", "t"};

  // Reference: each workflow recomputed cold on its own, so no scan is
  // shared.
  uint64_t independent_bytes = 0;
  std::vector<std::string> want;
  for (const WorkflowSpec& spec : specs) {
    uint64_t scan_bytes = 0;
    auto bytes = oink_oracle::ColdBytes(&fs_, spec, 0, &scan_bytes);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    independent_bytes += scan_bytes;
    want.push_back(*bytes);
  }

  WorkflowEngine eng(&fs_);
  for (const WorkflowSpec& spec : specs) {
    ASSERT_TRUE(eng.AddWorkflow(spec).ok());
  }
  ASSERT_TRUE(eng.RunTick(0).ok());
  EXPECT_EQ(eng.last_tick().shared_scan_groups, 1u);
  EXPECT_EQ(eng.last_tick().shared_scan_fanout, 3u);
  EXPECT_LT(eng.last_tick().scan_bytes_decompressed, independent_bytes);

  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(ResultBytes(eng, specs[i].name), want[i]) << specs[i].name;
  }
}

TEST_F(WorkflowEngineTest, SharedScanColdCostsSumToScanBytes) {
  // 97 rows: a one-row tail group makes the union scan's bytes uneven.
  WriteHour(0, 0, "part-00000", 97);
  WorkflowEngine engine(&fs_);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
  ASSERT_TRUE(engine.AddWorkflow(Window("early", 0, 20)).ok());
  ASSERT_TRUE(engine.AddWorkflow(Window("late", 25, 45)).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  ASSERT_EQ(engine.last_tick().shared_scan_fanout, 3u);
  const uint64_t cold = engine.last_tick().scan_bytes_decompressed;
  // The union scan's bytes do not divide evenly among the three plans, so
  // a split that dropped the remainder would come up short below.
  ASSERT_NE(cold % 3, 0u) << "fixture no longer exercises the remainder";

  // Warm: every plan hits, and the cold costs they carry add back up to
  // exactly the bytes the shared scan decompressed.
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_hits, 3u);
  EXPECT_EQ(engine.last_tick().bytes_saved, cold);
}

// A warm hit serves exactly the bytes a cold recomputation produces.
TEST_F(WorkflowEngineTest, VerifyCacheModePassesOnHonestCache) {
  WriteHour(0);
  WorkflowEngine engine(&fs_);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  ASSERT_EQ(engine.last_tick().cache_hits, 1u);
  auto want = oink_oracle::ColdBytes(&fs_, ClickCounts("clicks"));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(ResultBytes(engine, "clicks"), *want);
}

// Same stage_id, different logic: an under-keyed plan change. The engine
// hits the artifact the old logic wrote and serves its bytes; only the
// cold recomputation shows they are not this plan's answer.
TEST_F(WorkflowEngineTest, VerifyCacheFailsLoudlyOnDivergence) {
  WriteHour(0);
  std::string old_bytes;
  {
    WorkflowEngine engine(&fs_);
    ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
    ASSERT_TRUE(engine.RunTick(0).ok());
    old_bytes = ResultBytes(engine, "clicks");
  }
  WorkflowEngine engine(&fs_);
  WorkflowSpec wf = ClickCounts("clicks");
  wf.stage = [](const dataflow::Relation& r) {
    return r.GroupBy({"uid"},
                     {dataflow::Aggregate{dataflow::Aggregate::Op::kCount, "",
                                          "n_renamed"}});
  };
  ASSERT_TRUE(engine.AddWorkflow(wf).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_hits, 1u);
  const std::string served = ResultBytes(engine, "clicks");
  EXPECT_EQ(served, old_bytes);
  auto want = oink_oracle::ColdBytes(&fs_, wf);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_NE(*want, served);
}

// A tick's decisions are read from its TickStats: two misses answered by
// one shared scan, then two hits that scan nothing.
TEST_F(WorkflowEngineTest, ExplainModeTracesDecisions) {
  WriteHour(0);
  WorkflowEngine engine(&fs_);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
  ASSERT_TRUE(engine.AddWorkflow(Window("early", 0, 20)).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().workflows, 2u);
  EXPECT_EQ(engine.last_tick().cache_misses, 2u);
  EXPECT_EQ(engine.last_tick().cache_hits, 0u);
  EXPECT_EQ(engine.last_tick().shared_scan_groups, 1u);
  EXPECT_EQ(engine.last_tick().shared_scan_fanout, 2u);
  EXPECT_GT(engine.last_tick().scan_bytes_decompressed, 0u);

  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_hits, 2u);
  EXPECT_EQ(engine.last_tick().cache_misses, 0u);
  EXPECT_EQ(engine.last_tick().shared_scan_groups, 0u);
  EXPECT_EQ(engine.last_tick().scan_bytes_decompressed, 0u);
  // Canonical plans are exposed for plan tooling.
  auto plan = engine.CanonicalPlanFor("clicks");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("stage=click-counts-v1"), std::string::npos);
}

TEST_F(WorkflowEngineTest, EngineTicksRideTheOinkScheduler) {
  // Hours are indexed by absolute period number on the scheduler grid.
  const int64_t base = kT0 / kHour;
  WriteHour(base);
  WriteHour(base + 1, /*salt=*/1);
  WriteHour(base + 2, /*salt=*/2);

  Simulator sim(kT0);
  obs::MetricsRegistry metrics(&sim);
  WorkflowEngine engine(&fs_, OinkOptions{}, &metrics);
  WorkflowSpec wf = ClickCounts("hourly-clicks");
  ASSERT_TRUE(engine.AddWorkflow(wf).ok());

  Oink oink(&sim);
  JobSpec job;
  job.name = "oink-engine";
  job.period = kHour;
  ASSERT_TRUE(RegisterEngineJob(&oink, &engine, job).ok());
  oink.Start(kT0);
  sim.RunUntil(kT0 + 3 * kHour + 30 * kMillisPerMinute);

  EXPECT_EQ(oink.runs_succeeded(), 3u);
  EXPECT_TRUE(engine.ResultFor("hourly-clicks").ok());
  EXPECT_EQ(metrics.CounterTotal("oink.workflows_run"), 3u);
  EXPECT_EQ(metrics.CounterTotal("oink.cache_misses"), 3u);
  // Each hour had distinct content, so no cross-hour hits.
  EXPECT_EQ(metrics.CounterTotal("oink.cache_hits"), 0u);
}

// ---------------------------------------------------------------------------
// Warm ticks as lookups: manifest tokens memoized by (path, write
// generation), verified artifacts memoized by the cache.

// The rows of a (uid, n) click-count result, as "uid:n" strings.
std::vector<std::string> CountRows(const dataflow::Relation& rel) {
  std::vector<std::string> out;
  for (const auto& row : rel.rows()) {
    out.push_back(std::to_string(rel.Get(row, "uid")->int_value()) + ":" +
                  std::to_string(rel.Get(row, "n")->int_value()));
  }
  return out;
}

// A framed part, the way aggregator landing writes one: Lz over framed
// compact-Thrift records, here five clicks of one user.
std::string FramedClicks(int64_t uid) {
  std::string framed;
  events::ClientEventWriter writer(&framed);
  for (int i = 0; i < 5; ++i) {
    events::ClientEvent ev;
    ev.event_name = "web:home:::tweet:click";
    ev.user_id = uid;
    ev.timestamp = kT0 + i * 1000;
    writer.Add(ev);
  }
  return Lz::Compress(framed);
}

// Size and mtime cannot tell a framed part from a rewrite of the same
// size in the same sim ms; the tick must still miss and answer anew.
TEST_F(WorkflowEngineTest, FramedPartRewrittenAtSameSizeAndMsMisses) {
  const std::string path = HourDir(0) + "/part-00000";
  const std::string first = FramedClicks(1111);
  const std::string second = FramedClicks(2222);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_NE(first, second);
  ASSERT_TRUE(fs_.WriteFile(path, first).ok());
  WorkflowEngine engine(&fs_);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_misses, 1u);
  auto rel = engine.ResultFor("clicks");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(CountRows(*rel), std::vector<std::string>{"1111:5"});

  const TimeMs mtime = fs_.Stat(path)->mtime;
  ASSERT_TRUE(fs_.Delete(path).ok());
  ASSERT_TRUE(fs_.WriteFile(path, second).ok());
  ASSERT_EQ(fs_.Stat(path)->mtime, mtime);
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_hits, 0u);
  EXPECT_EQ(engine.last_tick().cache_misses, 1u);
  rel = engine.ResultFor("clicks");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(CountRows(*rel), std::vector<std::string>{"2222:5"});
}

// The RCFile twin: a part deleted and rewritten with other rows at the same
// path and ms misses on the same engine and returns the new answer.
TEST_F(WorkflowEngineTest, RcFilePartRewrittenAtSameMsMisses) {
  WriteHour(0);
  WorkflowEngine engine(&fs_);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  ASSERT_EQ(engine.last_tick().cache_hits, 1u);
  const std::string before = ResultBytes(engine, "clicks");

  ASSERT_TRUE(fs_.Delete(HourDir(0) + "/part-00000").ok());
  WriteHour(0, /*salt=*/1, "part-00000", /*rows=*/60);
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_hits, 0u);
  EXPECT_EQ(engine.last_tick().cache_misses, 1u);
  const std::string after = ResultBytes(engine, "clicks");
  EXPECT_NE(after, before);
  // What a cold recomputation with no memo computes from the new bytes.
  auto want = oink_oracle::ColdBytes(&fs_, ClickCounts("clicks"));
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(after, *want);
}

// A memoized part token is no excuse to skip a corrupted part: a flip in
// the last blob leaves every header checksum, and so the fingerprint,
// as it was (the tick hits, as a fresh read would), and a flip in the
// first group header fails the tick with Corruption.
TEST_F(WorkflowEngineTest, CorruptedPartBehavesAsAFreshRead) {
  WriteHour(0);
  const std::string part = HourDir(0) + "/part-00000";
  WorkflowEngine engine(&fs_);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  const std::string cold = ResultBytes(engine, "clicks");

  ASSERT_TRUE(fs_.CorruptFile(part, fs_.Stat(part)->size - 1).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_hits, 1u);
  EXPECT_EQ(ResultBytes(engine, "clicks"), cold);

  ASSERT_TRUE(fs_.CorruptFile(part, 6).ok());
  Status st = engine.RunTick(0);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

// An artifact corrupted after the cache verified it is read and checked
// again: counted corrupt, dropped, recomputed.
TEST_F(WorkflowEngineTest, CorruptedVerifiedArtifactIsDroppedAndRecomputed) {
  WriteHour(0);
  WorkflowEngine engine(&fs_);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  ASSERT_EQ(engine.last_tick().cache_hits, 1u);
  const std::string cold = ResultBytes(engine, "clicks");
  auto artifacts = fs_.ListRecursive("/warehouse/_cache");
  ASSERT_TRUE(artifacts.ok());
  ASSERT_EQ(artifacts->size(), 1u);

  const uint64_t corrupt = engine.cache()->corrupt_entries();
  ASSERT_TRUE(fs_.CorruptFile((*artifacts)[0].path, 9).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.cache()->corrupt_entries(), corrupt + 1);
  EXPECT_EQ(engine.last_tick().cache_hits, 0u);
  EXPECT_EQ(engine.last_tick().cache_misses, 1u);
  EXPECT_EQ(ResultBytes(engine, "clicks"), cold);
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_hits, 1u);
}

// A hit's result is held by the engine, not by the cache entry: evicting
// the artifact before ResultFor changes nothing the caller sees.
TEST_F(WorkflowEngineTest, ResultSurvivesEvictionOfItsArtifact) {
  WriteHour(0);
  OinkOptions options;
  options.cache_byte_budget = 1;  // each Put evicts every colder entry
  WorkflowEngine engine(&fs_, options);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
  ASSERT_TRUE(engine.RunTick(0).ok());
  const std::string cold = ResultBytes(engine, "clicks");
  ASSERT_TRUE(engine.RunTick(0).ok());
  ASSERT_EQ(engine.last_tick().cache_hits, 1u);

  const uint64_t evictions = engine.cache()->evictions();
  CacheArtifact other;
  other.manifest = "m";
  other.payload = "unrelated";
  ASSERT_TRUE(engine.cache()->Put("0000000000000000", other).ok());
  ASSERT_EQ(engine.cache()->evictions(), evictions + 1);
  EXPECT_EQ(ResultBytes(engine, "clicks"), cold);
  // The next tick finds no artifact and recomputes the same answer.
  ASSERT_TRUE(engine.RunTick(0).ok());
  EXPECT_EQ(engine.last_tick().cache_misses, 1u);
  EXPECT_EQ(ResultBytes(engine, "clicks"), cold);
}

// Re-ticking unchanged hours on the same engine lists directories and
// stats artifacts, and reads no file body: no part, no artifact.
TEST_F(WorkflowEngineTest, SameEngineWarmReTicksReadNoBytes) {
  WriteHour(0);
  WriteHour(1, /*salt=*/1);
  WriteHour(1, /*salt=*/2, "part-00001");
  WorkflowEngine engine(&fs_);
  ASSERT_TRUE(engine.AddWorkflow(ClickCounts("clicks")).ok());
  ASSERT_TRUE(engine.AddWorkflow(Window("early", 0, 20)).ok());
  std::vector<std::string> cold;
  for (int64_t hour : {0, 1}) {
    ASSERT_TRUE(engine.RunTick(hour).ok());
    cold.push_back(ResultBytes(engine, "clicks") +
                   ResultBytes(engine, "early"));
  }
  const uint64_t read0 = fs_.bytes_read();
  for (int pass = 0; pass < 3; ++pass) {
    for (int64_t hour : {0, 1}) {
      ASSERT_TRUE(engine.RunTick(hour).ok());
      EXPECT_EQ(engine.last_tick().cache_hits, 2u);
      EXPECT_EQ(engine.last_tick().cache_misses, 0u);
      EXPECT_EQ(fs_.bytes_read(), read0) << "pass " << pass << " hour " << hour;
      EXPECT_EQ(ResultBytes(engine, "clicks") + ResultBytes(engine, "early"),
                cold[static_cast<size_t>(hour)]);
    }
  }
}

}  // namespace
}  // namespace unilog::oink
