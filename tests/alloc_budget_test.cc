// Allocation budget of the per-record delivery path. This binary replaces
// the global operator new with the counting one from bench/alloc_hooks.h
// (so it must stay its own executable) and pins how many allocations a
// one-record daemon flush into a quiescent acks=all fleet costs: the
// daemon's framing and compression, the leader's produce and the
// synchronous replication to the follower. It pins a lingering flush
// tick, one with nothing ripe to produce, at zero allocations. It bounds
// what a warm aggregator roll allocates, and what the log mover
// allocates per event landing a broker hour as
// RCFile columns, pins a warmed-up row-group encoder at zero
// allocations, bounds the bytes the RCFile reader allocates on hostile
// v3 input by the input's size, and pins what a same-engine warm Oink
// re-tick allocates. A change that adds a per-call or per-event
// allocation anywhere on those paths fails here without running the
// bench.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "alloc_hooks.h"
#include "broker/broker.h"
#include "broker/fleet.h"
#include "columnar/rcfile.h"
#include "common/rng.h"
#include "events/client_event.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "obs/metrics.h"
#include "oink/workflow.h"
#include "rcfile_hostile.h"
#include "scribe/aggregator.h"
#include "scribe/cluster.h"
#include "scribe/daemon.h"
#include "scribe/log_mover.h"
#include "sim/simulator.h"
#include "zk/zookeeper.h"

namespace unilog::scribe {
namespace {

constexpr TimeMs kT0 = 1345507200000;  // 2012-08-21 00:00 UTC

// What a one-record flush allocates once the path is warm: four per
// flush — the size index and compressed body (both handed to the leader
// as the stored batch's own), the shared blob's control block and the
// follower's copy of the size index — plus, every third flush, a new
// deque block in the leader's and the follower's log, and now and then
// the growth of those deques' block maps. Measured: 4, 4, 6, ... with two
// flushes of 8 among the 96.
constexpr uint64_t kFlushBudget = 8;
constexpr uint64_t kMeasuredFlushes = 96;
constexpr uint64_t kTotalBudget = 452;

TEST(DaemonAllocBudgetTest, OneRecordBrokerFlushIntoAcksAllFleet) {
  Simulator sim(kT0);
  zk::ZooKeeper zk(&sim);
  obs::MetricsRegistry metrics(&sim);
  broker::BrokerOptions options;
  options.num_partitions = 4;
  options.replication_factor = 2;
  options.acks = broker::kAcksAll;
  broker::BrokerFleet fleet(&sim, &zk, "dc1",
                            {"dc1-brk0", "dc1-brk1", "dc1-brk2", "dc1-brk3"},
                            options, &metrics);
  ASSERT_TRUE(fleet.Start().ok());
  // Every flush produces its one record: the subject is a one-record
  // produce, not linger.
  ScribeOptions scribe_options;
  scribe_options.daemon_linger_ms = 0;
  ScribeDaemon daemon(
      &sim, &zk, "dc1", "dc1-host0",
      [](const std::string&) -> Aggregator* { return nullptr; }, Rng(7),
      scribe_options, &metrics);
  daemon.SetBrokerFleet(&fleet);

  // A client-event-sized payload that does not compress away.
  Rng rng(42);
  std::string payload;
  for (int i = 0; i < 180; ++i) {
    payload.push_back(static_cast<char>('a' + rng.Uniform(26)));
  }
  auto log_one = [&] {
    sim.RunUntil(sim.Now() + 1000);
    daemon.Log("client_events", payload);
  };

  // Warm-up: topic creation, leader discovery, the leader's per-producer
  // tables, and the grown capacity of every reused buffer.
  for (int i = 0; i < 64; ++i) {
    log_one();
    daemon.Flush();
  }
  ASSERT_EQ(daemon.QueuedEntries(), 0u);
  ASSERT_EQ(daemon.stats().entries_sent, 64u);

  uint64_t worst = 0;
  uint64_t total = 0;
  for (uint64_t i = 0; i < kMeasuredFlushes; ++i) {
    log_one();
    bench::AllocScope scope;
    daemon.Flush();
    const uint64_t n = scope.Delta();
    worst = std::max(worst, n);
    total += n;
    ASSERT_EQ(daemon.QueuedEntries(), 0u);
  }
  EXPECT_EQ(daemon.stats().entries_sent, 64u + kMeasuredFlushes);
  EXPECT_EQ(fleet.TotalStats().entries_produced, 64u + kMeasuredFlushes);
  EXPECT_LE(worst, kFlushBudget) << "total " << total;
  EXPECT_LE(total, kTotalBudget) << "worst " << worst;
}

// A flush tick on which no category is ripe decides so from each
// category's queued bytes and oldest entry, without walking the queue or
// building a batch: it allocates nothing, however much is queued.
TEST(DaemonAllocBudgetTest, LingeringTickAllocatesNothing) {
  Simulator sim(kT0);
  zk::ZooKeeper zk(&sim);
  obs::MetricsRegistry metrics(&sim);
  broker::BrokerOptions options;
  options.acks = broker::kAcksAll;
  broker::BrokerFleet fleet(&sim, &zk, "dc1", {"dc1-brk0", "dc1-brk1"},
                            options, &metrics);
  ASSERT_TRUE(fleet.Start().ok());
  const ScribeOptions scribe_options;
  ASSERT_GE(scribe_options.daemon_linger_ms, 5 * kMillisPerSecond);
  ScribeDaemon daemon(
      &sim, &zk, "dc1", "dc1-host0",
      [](const std::string&) -> Aggregator* { return nullptr; }, Rng(7),
      scribe_options, &metrics);
  daemon.SetBrokerFleet(&fleet);
  const std::string payload(180, 'x');

  // Warm-up, a minute into the hour and far from its close: one linger's
  // worth of entries in two categories, produced once they ripen.
  sim.RunUntil(kT0 + kMillisPerMinute);
  const TimeMs linger = scribe_options.daemon_linger_ms;
  for (TimeMs t = 0; t <= linger; t += kMillisPerSecond) {
    sim.RunUntil(kT0 + kMillisPerMinute + t);
    daemon.Log("clicks", payload);
    daemon.Log("search", payload);
    daemon.Flush();
  }
  ASSERT_EQ(daemon.QueuedEntries(), 0u);

  // Now each tick queues one more entry per category and finds none ripe.
  const TimeMs first = sim.Now() + kMillisPerSecond;
  for (TimeMs t = first; t < first + linger; t += kMillisPerSecond) {
    sim.RunUntil(t);
    daemon.Log("clicks", payload);
    daemon.Log("search", payload);
    bench::AllocScope scope;
    daemon.Flush();
    EXPECT_EQ(scope.Delta(), 0u) << "at +" << (t - first) << " ms";
  }
  EXPECT_EQ(daemon.QueuedEntries(),
            2 * static_cast<size_t>(linger / kMillisPerSecond));
  sim.RunUntil(first + linger);
  daemon.Flush();
  EXPECT_EQ(daemon.QueuedEntries(), 0u);
}

// What an aggregator's second roll of a same-shaped buffer allocates: the
// frame and the compressed body reuse the capacity the first roll grew,
// so what is left is the staged file's path, the staging write and the
// metrics around it. Measured: 39 when written, while each roll also
// published buffer-pool metrics, and 13 since. Growing the 54 KB frame
// afresh would add a dozen reallocations.
constexpr uint64_t kWarmRollBudget = 39;

TEST(AggregatorAllocBudgetTest, WarmRollReusesItsScratch) {
  Simulator sim(kT0);
  zk::ZooKeeper zk(&sim);
  hdfs::MiniHdfs staging;
  obs::MetricsRegistry metrics(&sim);
  Aggregator agg(&sim, &zk, &staging, "dc1", "agg0", ScribeOptions{},
                 &metrics);
  ASSERT_TRUE(agg.Start().ok());
  // A few hundred client-event-sized messages that do not compress away.
  Rng rng(42);
  std::vector<LogEntry> batch(300);
  for (LogEntry& entry : batch) {
    entry.category = "client_events";
    for (int i = 0; i < 180; ++i) {
      entry.message.push_back(static_cast<char>('a' + rng.Uniform(26)));
    }
  }
  ASSERT_TRUE(agg.Receive(batch).ok());
  agg.RollAll();  // grows the roll scratch
  ASSERT_EQ(agg.stats().files_written, 1u);

  ASSERT_TRUE(agg.Receive(batch).ok());
  bench::AllocScope scope;
  agg.RollAll();
  const uint64_t allocs = scope.Delta();
  ASSERT_EQ(agg.stats().files_written, 2u);
  ASSERT_EQ(agg.BufferedEntries(), 0u);
  EXPECT_LE(allocs, kWarmRollBudget);
  std::printf("warm roll allocations: %llu\n",
              static_cast<unsigned long long>(allocs));
}

// What the mover allocates per event landing a warmed-up broker hour as
// RCFile v3: per fetched batch its metadata copy and one decompressed
// body; per hour the frame-view and merged-view lists, the parse chunks,
// the encoded groups, the part and the warehouse write. Nothing is
// allocated per event: no decoded record, payload copy or parsed event.
// Measured: 2.0 allocations per event on this hour.
constexpr double kMoverAllocsPerEvent = 5.0;

TEST(MoverAllocBudgetTest, ColumnarBrokerHourLandsInPlace) {
  Simulator sim(kT0);
  ClusterTopology topo;
  topo.datacenters = {"dc1"};
  topo.daemons_per_dc = 8;
  topo.brokers_per_dc = 4;
  topo.broker_options.num_partitions = 4;
  topo.broker_options.replication_factor = 2;
  topo.broker_options.acks = broker::kAcksAll;
  exec::Executor executor(exec::ExecOptions{.threads = 2});
  LogMoverOptions mopts;
  mopts.columnar_categories = {"client_events"};
  mopts.executor = &executor;
  mopts.run_interval_ms = 1000 * kMillisPerHour;  // driven below
  ScribeCluster cluster(&sim, topo, ScribeOptions{}, mopts, /*seed=*/7);
  ASSERT_TRUE(cluster.Start().ok());

  // Two hours of client events; the first warms the mover's buffers.
  static const char* kNames[] = {
      "web:home:timeline:stream:tweet:impression",
      "web:home:timeline:stream:tweet:click",
      "iphone:home:timeline:stream:tweet:impression",
      "android:profile:::follow",
      "web:search:results::query",
  };
  Rng rng(42);
  constexpr int kPerHour = 12000;
  for (int i = 0; i < 2 * kPerHour; ++i) {
    events::ClientEvent ev;
    ev.initiator = static_cast<events::EventInitiator>(rng.Uniform(4));
    ev.event_name = kNames[rng.Uniform(5)];
    ev.user_id = static_cast<int64_t>(rng.Uniform(20000));
    ev.session_id = "session-" + std::to_string(rng.Uniform(40000));
    ev.ip = "10.1." + std::to_string(rng.Uniform(256)) + ".7";
    ev.timestamp = kT0 + (i / kPerHour) * kMillisPerHour +
                   static_cast<TimeMs>(rng.Uniform(kMillisPerHour - 60000));
    if (rng.Bernoulli(0.3)) ev.details = {{"rank", std::to_string(i % 9)}};
    sim.At(ev.timestamp, [&cluster, message = ev.Serialize()] {
      cluster.Log(0, LogEntry{"client_events", message});
    });
  }
  LogMover* mover = cluster.mover();
  sim.RunUntil(kT0 + kMillisPerHour + 10 * kMillisPerMinute);
  mover->RunOnce();
  ASSERT_EQ(mover->next_hour(), kT0 + kMillisPerHour);
  const uint64_t warm_moved = mover->stats().messages_moved;
  ASSERT_EQ(warm_moved, static_cast<uint64_t>(kPerHour));

  sim.RunUntil(kT0 + 2 * kMillisPerHour + 10 * kMillisPerMinute);
  bench::AllocScope scope;
  mover->RunOnce();
  const uint64_t allocs = scope.Delta();
  ASSERT_EQ(mover->next_hour(), kT0 + 2 * kMillisPerHour);
  const uint64_t moved = mover->stats().messages_moved - warm_moved;
  ASSERT_EQ(moved, static_cast<uint64_t>(kPerHour));
  EXPECT_EQ(mover->stats().columnar_parse_fallbacks, 0u);
  EXPECT_LE(static_cast<double>(allocs) / static_cast<double>(moved),
            kMoverAllocsPerEvent)
      << allocs << " allocations for " << moved << " events";
}

// A warmed-up encoder codes rows and packs groups into reused buffers:
// once it has seen a group's worth of distinct values, neither Append nor
// FinishGroup allocates. The measured pass replays the warm-up's groups,
// so every dictionary and array needs exactly the capacity it already has.
TEST(EncoderAllocBudgetTest, WarmRowGroupEncoderAllocatesNothing) {
  Rng rng(21);
  std::vector<events::ClientEvent> rows;
  for (int i = 0; i < 4 * 1024; ++i) {
    events::ClientEvent ev;
    ev.initiator = static_cast<events::EventInitiator>(rng.Uniform(4));
    ev.event_name = "web:home:::tweet:action" + std::to_string(rng.Uniform(40));
    ev.user_id = static_cast<int64_t>(rng.Uniform(20000));
    ev.session_id = "session-" + std::to_string(rng.Uniform(40000));
    ev.ip = "10.1." + std::to_string(rng.Uniform(256)) + ".7";
    ev.timestamp = kT0 + static_cast<TimeMs>(rng.Uniform(kMillisPerHour));
    for (uint64_t d = rng.Uniform(4); d > 0; --d) {
      ev.details.emplace_back("k" + std::to_string(d),
                              std::to_string(rng.Uniform(50)));
    }
    rows.push_back(std::move(ev));
  }
  std::vector<std::vector<events::DetailView>> details;
  for (const auto& ev : rows) {
    details.emplace_back(ev.details.begin(), ev.details.end());
  }
  columnar::RowGroupEncoder encoder;
  std::string out;
  auto encode_all = [&] {
    out.clear();
    for (size_t i = 0; i < rows.size(); ++i) {
      const events::ClientEvent& ev = rows[i];
      events::ClientEventView view;
      view.initiator = ev.initiator;
      view.event_name = ev.event_name;
      view.user_id = ev.user_id;
      view.session_id = ev.session_id;
      view.ip = ev.ip;
      view.timestamp = ev.timestamp;
      encoder.Append(view, details[i]);
      if (encoder.rows() == columnar::kDefaultRowsPerGroup) {
        encoder.FinishGroup(&out);
      }
    }
  };
  encode_all();
  const std::string warm = out;
  bench::AllocScope scope;
  encode_all();
  EXPECT_EQ(scope.Delta(), 0u);
  EXPECT_TRUE(out == warm);
  std::vector<events::ClientEvent> back;
  ASSERT_TRUE(columnar::RcFileReader(std::string(columnar::kRcFileMagic) + out)
                  .ReadAll(columnar::kAllColumns, &back)
                  .ok());
  EXPECT_EQ(back, rows);
}

// What the reader may allocate on a hostile v3 body: a few KiB of fixed
// scan state plus a bounded multiple of the input. A check that ran after
// sizing anything from a claimed row, page or code count would allocate
// megabytes on these bodies of under 128 bytes.
constexpr uint64_t kHostileFixedBytes = 8 * 1024;
constexpr uint64_t kHostileBytesPerInputByte = 32;

TEST(ReaderAllocBudgetTest, HostileV3BodiesAllocateBoundedByTheirSize) {
  for (const auto& bomb : rcfile_hostile::V3Bombs()) {
    SCOPED_TRACE(bomb.what);
    columnar::ScanSpec narrow;
    narrow.event_name_patterns.push_back("web:*");
    narrow.user_ids = std::set<int64_t>{0, 7};
    bench::AllocScope scope;
    {
      columnar::RcFileReader reader(bomb.body);
      for (const columnar::ScanSpec& spec : {columnar::ScanSpec(), narrow}) {
        std::vector<events::ClientEvent> out;
        EXPECT_TRUE(reader.Scan(spec, &out).IsCorruption());
      }
    }
    EXPECT_LE(scope.Bytes(), kHostileFixedBytes + kHostileBytesPerInputByte *
                                                      bomb.body.size());
  }
}

// What one warm re-tick of an unchanged hour allocates on the engine that
// answered it: four workflows over one directory (the e2e suite's shape),
// every plan a hit. The tick lists the directory, builds its manifest from
// memoized part tokens, stats each artifact and shares its memoized
// payload; no file body is read, checksummed or decompressed, and no
// result is deserialized. What remains is the workflows' input_dir
// strings, the listing, the manifest, and per plan its key, its slot in
// the tick's key map and its artifact path and stat. Measured: 38.
constexpr uint64_t kWarmReTickAllocs = 48;

TEST(OinkAllocBudgetTest, SameEngineWarmReTickIsALookup) {
  hdfs::MiniHdfs fs;
  const std::string root = "/logs/client_events";
  auto dir = [root](int64_t hour) {
    return root + "/" + HourPartitionPath(hour * kMillisPerHour);
  };
  const int64_t hour = kT0 / kMillisPerHour;
  Rng rng(3);
  std::string body;
  columnar::RcFileWriter writer(&body);
  static const char* kNames[] = {"web:home:timeline:stream:tweet:impression",
                                 "web:home:timeline:stream:tweet:click",
                                 "android:profile:::follow"};
  for (int i = 0; i < 3000; ++i) {
    events::ClientEvent ev;
    ev.event_name = kNames[rng.Uniform(3)];
    ev.user_id = static_cast<int64_t>(rng.Uniform(500));
    ev.session_id = "session-" + std::to_string(rng.Uniform(900));
    ev.ip = "10.0.0." + std::to_string(rng.Uniform(4));
    ev.timestamp = kT0 + static_cast<TimeMs>(rng.Uniform(kMillisPerHour));
    ASSERT_TRUE(writer.Add(ev).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  ASSERT_TRUE(fs.WriteFile(dir(hour) + "/part-00000", body).ok());

  oink::WorkflowEngine engine(&fs);
  using dataflow::Value;
  const dataflow::Aggregate count{dataflow::Aggregate::Op::kCount, "", "n"};
  std::vector<oink::WorkflowSpec> specs(4);
  specs[0].filters = {{"event_name", "matches", Value::Str("*:click")}};
  specs[0].project_cols = {"user_id"};
  specs[0].project_names = {"uid"};
  specs[0].stage = [count](const dataflow::Relation& r) {
    return r.GroupBy({"uid"}, {count});
  };
  specs[0].stage_id = "click-rollup-v1";
  specs[1].filters = {{"event_name", "matches", Value::Str("*:impression")}};
  specs[1].project_cols = {"event_name"};
  specs[1].project_names = {"name"};
  specs[1].stage = [count](const dataflow::Relation& r) {
    return r.GroupBy({"name"}, {count});
  };
  specs[1].stage_id = "impression-volume-v1";
  specs[2].filters = {{"user_id", "==", Value::Int(7)}};
  specs[2].project_cols = {"timestamp", "event_name"};
  specs[2].project_names = {"ts", "name"};
  specs[3].filters = {{"ip", "==", Value::Str("10.0.0.2")}};
  specs[3].project_cols = {"user_id", "event_name"};
  specs[3].project_names = {"uid", "name"};
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "workflow-" + std::to_string(i);
    specs[i].input_dir = dir;
    ASSERT_TRUE(engine.AddWorkflow(std::move(specs[i])).ok());
  }

  // The cold tick answers and caches; the first warm one fills the
  // engine's result slots for good.
  ASSERT_TRUE(engine.RunTick(hour).ok());
  ASSERT_EQ(engine.last_tick().cache_misses, 4u);
  ASSERT_TRUE(engine.RunTick(hour).ok());
  ASSERT_EQ(engine.last_tick().cache_hits, 4u);

  const uint64_t read0 = fs.bytes_read();
  bench::AllocScope scope;
  ASSERT_TRUE(engine.RunTick(hour).ok());
  const uint64_t allocs = scope.Delta();
  EXPECT_EQ(engine.last_tick().cache_hits, 4u);
  EXPECT_EQ(fs.bytes_read(), read0);
  EXPECT_LE(allocs, kWarmReTickAllocs);
  std::printf("warm re-tick: %llu allocations\n",
              static_cast<unsigned long long>(allocs));
}

}  // namespace
}  // namespace unilog::scribe
