// Tests for the Scribe delivery infrastructure (Figure 1): daemons,
// aggregators, ZooKeeper-based discovery and failover, staging writes,
// and the log mover's atomic hourly slide into the warehouse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "columnar/rcfile.h"
#include "common/compress.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "events/client_event.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "lz_reference.h"
#include "scribe/aggregator.h"
#include "scribe/cluster.h"
#include "scribe/daemon.h"
#include "scribe/log_mover.h"
#include "scribe/message.h"
#include "sim/simulator.h"
#include "zk/zookeeper.h"

namespace unilog::scribe {
namespace {

constexpr TimeMs kT0 = 1345507200000;  // 2012-08-21 00:00 UTC

// ---------------------------------------------------------------------------
// Simulator basics

TEST(SimulatorTest, EventsRunInTimeThenFifoOrder) {
  Simulator sim(100);
  std::vector<int> order;
  sim.At(300, [&] { order.push_back(3); });
  sim.At(200, [&] { order.push_back(1); });
  sim.At(200, [&] { order.push_back(2); });  // same time: FIFO
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 300);
  EXPECT_EQ(sim.EventsProcessed(), 3u);
}

TEST(SimulatorTest, RunUntilAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.At(50, [&] { ++fired; });
  sim.At(150, [&] { ++fired; });
  sim.RunUntil(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 100);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, PastSchedulingClampsToNow) {
  Simulator sim(1000);
  TimeMs seen = -1;
  sim.At(5, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, 1000);
}

TEST(SimulatorTest, CallbacksCanScheduleMore) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&]() {
    if (++depth < 5) sim.After(10, chain);
  };
  sim.After(10, chain);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), 50);
}

// The order oracle: one flat list, the earliest (time, seq) runs next.
class ReferenceSimulator {
 public:
  explicit ReferenceSimulator(TimeMs start) : now_(start) {}

  TimeMs Now() const { return now_; }
  void At(TimeMs t, std::function<void()> cb) {
    events_.push_back(Event{std::max(t, now_), next_seq_++, std::move(cb)});
  }
  void After(TimeMs delay, std::function<void()> cb) {
    At(now_ + delay, std::move(cb));
  }
  // Every's definition: a callback whose last act is After(period, itself).
  void Every(TimeMs period, std::function<bool()> tick) {
    After(period, [this, period, tick = std::move(tick)]() mutable {
      if (tick()) Every(period, std::move(tick));
    });
  }
  void Run() {
    while (RunNext(std::numeric_limits<TimeMs>::max())) {
    }
  }
  void RunUntil(TimeMs t) {
    while (RunNext(t)) {
    }
    now_ = std::max(now_, t);
  }
  void Step(uint64_t n) {
    while (n-- > 0 && RunNext(std::numeric_limits<TimeMs>::max())) {
    }
  }
  size_t PendingEvents() const { return events_.size(); }
  uint64_t EventsProcessed() const { return processed_; }

 private:
  struct Event {
    TimeMs time;
    uint64_t seq;
    std::function<void()> cb;
  };
  bool RunNext(TimeMs limit) {
    auto next = std::min_element(
        events_.begin(), events_.end(), [](const Event& a, const Event& b) {
          return a.time != b.time ? a.time < b.time : a.seq < b.seq;
        });
    if (next == events_.end() || next->time > limit) return false;
    Event ev = std::move(*next);
    events_.erase(next);
    now_ = ev.time;
    ++processed_;
    ev.cb();
    return true;
  }

  TimeMs now_;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  std::vector<Event> events_;
};

// A delay drawn to stress the near/far split: same-ms ties, nested
// After(0), both sides of the horizon, far beyond it, and the past.
TimeMs OracleDelay(Rng* rng) {
  constexpr TimeMs kH = Simulator::kNearHorizonMs;
  switch (rng->Uniform(9)) {
    case 0:
      return 0;
    case 1:
      return kH - 1;
    case 2:
      return kH;
    case 3:
      return kH + 1;
    case 4:
      return static_cast<TimeMs>(rng->Uniform(3 * kH));
    case 5:
      return static_cast<TimeMs>(rng->Uniform(40));  // dense ties
    case 6:
      return 5 * kH + static_cast<TimeMs>(rng->Uniform(kH));
    case 7:
      return -static_cast<TimeMs>(1 + rng->Uniform(kH));  // clamped
    default:
      return kH / 2;
  }
}

// A timer period: a few shared values so that timers started together form
// same-period groups, 0 (re-armed at the same ms), and both sides of the
// near/far horizon.
TimeMs OraclePeriod(Rng* rng) {
  static constexpr TimeMs kPeriods[] = {0,
                                        7,
                                        40,
                                        500,
                                        Simulator::kNearHorizonMs - 1,
                                        Simulator::kNearHorizonMs,
                                        3 * Simulator::kNearHorizonMs};
  return kPeriods[rng->Uniform(std::size(kPeriods))];
}

// Drives `sim` through a seeded schedule and returns what it observed:
// the id of every executed event, in order, then after every top-level call
// the clock, the pending count and the processed count. Each event's own
// children come from a generator seeded by its id, so a run whose order
// diverges also diverges in what it schedules.
//
// With `timers`, one-shots, timer ticks and the top level also start
// groups of same-period timers back to back (Every from callbacks and from
// ticks). A tick runs a few times, then stops; on the way it may schedule a
// one-shot or start a timer due exactly at its own re-arm time, schedule
// other work, or stop early. Step(n) then ends inside groups.
template <typename Sim>
std::vector<int64_t> DriveOracleSchedule(Sim* sim, uint64_t seed,
                                         bool timers = false) {
  std::vector<int64_t> trace;
  int next_id = 0;
  std::function<void(TimeMs, bool)> schedule;
  std::function<void(TimeMs, int)> every;
  // Starts a seeded number of timers back to back, one period each.
  auto start_group = [&](Rng* rng) {
    const TimeMs period = OraclePeriod(rng);
    every(period, 1 + static_cast<int>(rng->Uniform(8)));
  };
  schedule = [&](TimeMs delay, bool absolute) {
    const int id = next_id++;
    auto cb = [&, id] {
      trace.push_back(id);
      Rng rng(seed * 1000003 + static_cast<uint64_t>(id));
      if (next_id > 4000) return;
      for (uint64_t c = rng.Uniform(3); c > 0; --c) {
        schedule(OracleDelay(&rng), rng.Bernoulli(0.3));
      }
      if (timers && rng.Bernoulli(0.2)) start_group(&rng);
    };
    if (absolute) {
      sim->At(sim->Now() + delay, cb);
    } else {
      sim->After(delay, cb);
    }
  };
  every = [&](TimeMs period, int count) {
    for (int i = 0; i < count; ++i) {
      const int id = next_id++;
      sim->Every(period, [&, id, period, runs = 0]() mutable {
        trace.push_back(id);
        Rng rng(seed * 1000003 + static_cast<uint64_t>(id) * 64 +
                static_cast<uint64_t>(runs));
        if (++runs >= 6 || next_id > 4000) return false;
        switch (rng.Uniform(8)) {
          case 0:  // due exactly when this tick re-arms
            schedule(period, rng.Bernoulli(0.5));
            break;
          case 1:
            every(period, 1 + static_cast<int>(rng.Uniform(3)));
            break;
          case 2:
            schedule(OracleDelay(&rng), rng.Bernoulli(0.5));
            break;
          case 3:
            start_group(&rng);
            break;
          case 4:
            return false;
          default:
            break;
        }
        return true;
      });
    }
  };
  Rng ops(seed);
  for (int i = 0; i < 200; ++i) {
    schedule(OracleDelay(&ops), ops.Bernoulli(0.5));
    if (timers && ops.Bernoulli(0.1)) start_group(&ops);
  }
  for (int op = 0; op < 300 && sim->PendingEvents() > 0; ++op) {
    if (timers && ops.Bernoulli(0.2)) start_group(&ops);
    switch (ops.Uniform(4)) {
      case 0:
        sim->Step(1 + ops.Uniform(8));
        break;
      case 1:
        sim->RunUntil(sim->Now() + OracleDelay(&ops));
        break;
      case 2:
        schedule(OracleDelay(&ops), ops.Bernoulli(0.5));
        break;
      default:
        sim->RunUntil(sim->Now() + 2 * Simulator::kNearHorizonMs);
        break;
    }
    trace.push_back(-1);  // a top-level call ended
    trace.push_back(sim->Now());
    trace.push_back(static_cast<int64_t>(sim->PendingEvents()));
    trace.push_back(static_cast<int64_t>(sim->EventsProcessed()));
  }
  sim->Run();
  trace.push_back(-2);
  trace.push_back(sim->Now());
  trace.push_back(static_cast<int64_t>(sim->PendingEvents()));
  trace.push_back(static_cast<int64_t>(sim->EventsProcessed()));
  return trace;
}

TEST(SimulatorTest, OrderMatchesTheSortedReferenceOnRandomSchedules) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Simulator sim(kT0);
    ReferenceSimulator reference(kT0);
    const std::vector<int64_t> got = DriveOracleSchedule(&sim, seed);
    const std::vector<int64_t> want = DriveOracleSchedule(&reference, seed);
    ASSERT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(sim.PendingEvents(), 0u);
    EXPECT_GT(sim.EventsProcessed(), 200u) << "seed " << seed;
  }
}

// Every's groups fire as one heap entry; they must still run each tick
// where its own self-re-arming callback would, with the same counters.
TEST(SimulatorTest, EveryMatchesTheSelfReArmingReference) {
  for (uint64_t seed = 1; seed <= 32; ++seed) {
    Simulator sim(kT0);
    ReferenceSimulator reference(kT0);
    const std::vector<int64_t> got = DriveOracleSchedule(&sim, seed, true);
    const std::vector<int64_t> want =
        DriveOracleSchedule(&reference, seed, true);
    ASSERT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(sim.PendingEvents(), 0u);
    EXPECT_GT(sim.EventsProcessed(), 200u) << "seed " << seed;
  }
}

// Eight timers started together (one group) and one that stops on its
// third tick: EventsProcessed counts ticks and PendingEvents counts live
// timers after every single step, inside the group included.
TEST(SimulatorTest, EveryCountsTicksAndLiveTimersStepByStep) {
  auto drive = [](auto* sim) {
    std::vector<int64_t> trace;
    for (int i = 0; i < 8; ++i) {
      sim->Every(100, [&trace, i] {
        trace.push_back(i);
        return true;
      });
    }
    sim->Every(100, [&trace, runs = 0]() mutable {
      trace.push_back(8);
      return ++runs < 3;
    });
    for (int step = 0; step < 60; ++step) {
      sim->Step(1);
      trace.push_back(sim->Now());
      trace.push_back(static_cast<int64_t>(sim->EventsProcessed()));
      trace.push_back(static_cast<int64_t>(sim->PendingEvents()));
    }
    return trace;
  };
  Simulator sim(0);
  ReferenceSimulator reference(0);
  const std::vector<int64_t> got = drive(&sim);
  EXPECT_EQ(got, drive(&reference));
  EXPECT_EQ(sim.EventsProcessed(), 60u);
  EXPECT_EQ(sim.PendingEvents(), 8u);
  EXPECT_EQ(sim.Now(), 800);  // 3 rounds of 9 ticks, 4 of 8, then one
}

TEST(SimulatorTest, FarEventsInterleaveWithNearOnesByTimeThenSeq) {
  constexpr TimeMs kH = Simulator::kNearHorizonMs;
  Simulator sim(0);
  std::vector<int> order;
  // Scheduled at 0, 2H ahead: the far heap. By the time the clock is
  // within the horizon of it, same-time and earlier events land in the
  // near heap; the far event still runs by (time, seq).
  sim.At(2 * kH, [&] { order.push_back(1); });
  sim.At(kH + 1, [&] {
    order.push_back(0);
    sim.At(2 * kH, [&] { order.push_back(2); });      // near, same ms, later
    sim.At(2 * kH - 1, [&] { order.push_back(-1); });  // near, earlier
  });
  sim.RunUntil(kH + 1);
  EXPECT_EQ(sim.PendingEvents(), 3u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, -1, 1, 2}));
  EXPECT_EQ(sim.EventsProcessed(), 4u);
  EXPECT_EQ(sim.Now(), 2 * kH);
}

// ---------------------------------------------------------------------------
// Message framing

TEST(MessageTest, FrameUnframeRoundTrip) {
  std::vector<std::string> msgs = {"a", "", std::string(500, 'x'), "end"};
  std::string body = FrameMessages(msgs);
  auto back = UnframeMessages(body);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, msgs);
  EXPECT_EQ(CountFramed(body).value(), 4u);
}

TEST(MessageTest, CorruptFramingDetected) {
  std::string body = FrameMessages({"hello", "world"});
  EXPECT_FALSE(UnframeMessages(body.substr(0, body.size() - 2)).ok());
  EXPECT_FALSE(CountFramed(body.substr(0, 3)).ok());
}

// ---------------------------------------------------------------------------
// Aggregator

class AggregatorTest : public ::testing::Test {
 protected:
  AggregatorTest()
      : sim_(kT0), zk_(&sim_), staging_(&sim_), options_() {
    options_.roll_interval_ms = 10 * kMillisPerSecond;
  }

  Simulator sim_;
  zk::ZooKeeper zk_;
  hdfs::MiniHdfs staging_;
  ScribeOptions options_;
};

TEST_F(AggregatorTest, StartRegistersEphemeralZnode) {
  Aggregator agg(&sim_, &zk_, &staging_, "dc1", "agg0", options_);
  ASSERT_TRUE(agg.Start().ok());
  EXPECT_TRUE(zk_.Exists("/scribe/dc1/aggregators/agg0"));
  auto children = zk_.GetChildren(AggregatorRegistryPath("dc1"));
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(*children, std::vector<std::string>{"agg0"});
}

TEST_F(AggregatorTest, ReceiveBuffersAndRollWritesCompressedFile) {
  Aggregator agg(&sim_, &zk_, &staging_, "dc1", "agg0", options_);
  ASSERT_TRUE(agg.Start().ok());
  std::vector<LogEntry> batch = {{"client_events", "msg-one"},
                                 {"client_events", "msg-two"}};
  ASSERT_TRUE(agg.Receive(batch).ok());
  EXPECT_EQ(agg.stats().entries_received, 2u);
  EXPECT_EQ(agg.UnflushedWatermark(), TruncateToHour(kT0));

  agg.RollAll();
  EXPECT_EQ(agg.UnflushedWatermark(), INT64_MAX);
  auto files = staging_.ListRecursive("/staging/client_events");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  EXPECT_NE((*files)[0].path.find("/staging/client_events/2012/08/21/00/"),
            std::string::npos);

  auto body = staging_.ReadFile((*files)[0].path);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, Lz::FastCompressor().Compress(
                       FrameMessages({"msg-one", "msg-two"})));
  auto raw = Lz::Decompress(*body);
  ASSERT_TRUE(raw.ok());
  auto msgs = UnframeMessages(*raw);
  ASSERT_TRUE(msgs.ok());
  EXPECT_EQ(*msgs, (std::vector<std::string>{"msg-one", "msg-two"}));
}

TEST_F(AggregatorTest, PeriodicRollTimerFires) {
  Aggregator agg(&sim_, &zk_, &staging_, "dc1", "agg0", options_);
  ASSERT_TRUE(agg.Start().ok());
  ASSERT_TRUE(agg.Receive({{"cat", "m"}}).ok());
  sim_.RunUntil(kT0 + 11 * kMillisPerSecond);
  EXPECT_EQ(agg.stats().files_written, 1u);
}

TEST_F(AggregatorTest, SizeTriggeredEarlyRoll) {
  options_.roll_bytes = 100;
  Aggregator agg(&sim_, &zk_, &staging_, "dc1", "agg0", options_);
  ASSERT_TRUE(agg.Start().ok());
  ASSERT_TRUE(agg.Receive({{"cat", std::string(200, 'x')}}).ok());
  // Roll happened inline, before any timer.
  EXPECT_EQ(agg.stats().files_written, 1u);
}

TEST_F(AggregatorTest, CrashDropsBufferAndDeregisters) {
  Aggregator agg(&sim_, &zk_, &staging_, "dc1", "agg0", options_);
  ASSERT_TRUE(agg.Start().ok());
  ASSERT_TRUE(agg.Receive({{"cat", "m1"}, {"cat", "m2"}}).ok());
  agg.Crash();
  EXPECT_FALSE(agg.alive());
  EXPECT_EQ(agg.stats().entries_lost_in_crash, 2u);
  sim_.Run();  // deliver watch events
  EXPECT_FALSE(zk_.Exists("/scribe/dc1/aggregators/agg0"));
  EXPECT_TRUE(agg.Receive({{"cat", "m3"}}).IsUnavailable());
}

TEST_F(AggregatorTest, RestartAfterCrashReRegisters) {
  Aggregator agg(&sim_, &zk_, &staging_, "dc1", "agg0", options_);
  ASSERT_TRUE(agg.Start().ok());
  agg.Crash();
  ASSERT_TRUE(agg.Start().ok());
  EXPECT_TRUE(agg.alive());
  EXPECT_TRUE(zk_.Exists("/scribe/dc1/aggregators/agg0"));
  ASSERT_TRUE(agg.Receive({{"cat", "m"}}).ok());
}

TEST_F(AggregatorTest, HdfsOutageKeepsDataBuffered) {
  Aggregator agg(&sim_, &zk_, &staging_, "dc1", "agg0", options_);
  ASSERT_TRUE(agg.Start().ok());
  ASSERT_TRUE(agg.Receive({{"cat", "m"}}).ok());
  staging_.SetAvailable(false);
  agg.RollAll();
  EXPECT_EQ(agg.stats().files_written, 0u);
  EXPECT_GE(agg.stats().hdfs_write_failures, 1u);
  EXPECT_EQ(agg.UnflushedWatermark(), TruncateToHour(kT0));
  // Recovery: next roll drains the buffer — no data lost.
  staging_.SetAvailable(true);
  agg.RollAll();
  EXPECT_EQ(agg.stats().files_written, 1u);
  EXPECT_EQ(agg.UnflushedWatermark(), INT64_MAX);
}

TEST_F(AggregatorTest, BufferLimitDropsOldestDuringOutage) {
  options_.aggregator_buffer_limit_bytes = 100;
  options_.roll_bytes = 1 << 20;  // no size-triggered roll
  Aggregator agg(&sim_, &zk_, &staging_, "dc1", "agg0", options_);
  ASSERT_TRUE(agg.Start().ok());
  staging_.SetAvailable(false);
  // 25-byte messages against a 100-byte limit: only the newest 4 survive.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        agg.Receive({{"cat", "msg-" + std::to_string(i) + std::string(20, 'x')}})
            .ok());
  }
  EXPECT_EQ(agg.stats().entries_dropped_overflow, 6u);
  EXPECT_EQ(agg.BufferedEntries(), 4u);
  EXPECT_LE(agg.BufferedBytes(), 100u);

  // Recovery: the surviving (newest) messages reach staging; accounting
  // closes — received == staged + dropped.
  staging_.SetAvailable(true);
  agg.RollAll();
  EXPECT_EQ(agg.stats().entries_staged, 4u);
  EXPECT_EQ(agg.stats().entries_received,
            agg.stats().entries_staged + agg.stats().entries_dropped_overflow);
  auto files = staging_.ListRecursive("/staging/cat");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  auto raw = Lz::Decompress(*staging_.ReadFile((*files)[0].path));
  ASSERT_TRUE(raw.ok());
  auto msgs = UnframeMessages(*raw);
  ASSERT_TRUE(msgs.ok());
  ASSERT_EQ(msgs->size(), 4u);
  EXPECT_EQ((*msgs)[0].substr(0, 5), "msg-6");  // oldest were dropped
  EXPECT_EQ((*msgs)[3].substr(0, 5), "msg-9");
}

TEST_F(AggregatorTest, LongAggregatorIdsProduceDistinctStagedFiles) {
  // Two aggregators whose ids only differ past the 63rd character used to
  // collide onto one staged file name (fixed-buffer snprintf truncation):
  // the second roll then failed forever with AlreadyExists.
  std::string prefix(80, 'a');
  Aggregator agg1(&sim_, &zk_, &staging_, "dc1", prefix + "-1", options_);
  Aggregator agg2(&sim_, &zk_, &staging_, "dc1", prefix + "-2", options_);
  ASSERT_TRUE(agg1.Start().ok());
  ASSERT_TRUE(agg2.Start().ok());
  ASSERT_TRUE(agg1.Receive({{"cat", "from-1"}}).ok());
  ASSERT_TRUE(agg2.Receive({{"cat", "from-2"}}).ok());
  agg1.RollAll();
  agg2.RollAll();
  EXPECT_EQ(agg1.stats().files_written, 1u);
  EXPECT_EQ(agg2.stats().files_written, 1u);
  EXPECT_EQ(agg1.stats().hdfs_write_failures, 0u);
  EXPECT_EQ(agg2.stats().hdfs_write_failures, 0u);
  auto files = staging_.ListRecursive("/staging/cat");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 2u);
}

// ---------------------------------------------------------------------------
// Daemon + failover

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest() : sim_(kT0), zk_(&sim_), staging_(&sim_) {
    options_.daemon_flush_interval_ms = kMillisPerSecond;
    options_.daemon_retry_backoff_ms = 2 * kMillisPerSecond;
  }

  ScribeDaemon MakeDaemon(const std::string& host) {
    auto resolver = [this](const std::string& name) -> Aggregator* {
      for (Aggregator* a : aggs_) {
        if (a->id() == name) return a;
      }
      return nullptr;
    };
    return ScribeDaemon(&sim_, &zk_, "dc1", host, resolver, Rng(42), options_);
  }

  Simulator sim_;
  zk::ZooKeeper zk_;
  hdfs::MiniHdfs staging_;
  ScribeOptions options_;
  std::vector<Aggregator*> aggs_;
};

TEST_F(DaemonTest, LogsFlowToAggregator) {
  Aggregator agg(&sim_, &zk_, &staging_, "dc1", "agg0", options_);
  ASSERT_TRUE(agg.Start().ok());
  aggs_ = {&agg};
  ScribeDaemon daemon = MakeDaemon("host0");
  daemon.Start();
  daemon.Log("client_events", "hello");
  daemon.Log("client_events", "world");
  EXPECT_EQ(daemon.QueuedEntries(), 2u);
  sim_.RunUntil(kT0 + 2 * kMillisPerSecond);
  EXPECT_EQ(daemon.QueuedEntries(), 0u);
  EXPECT_EQ(daemon.stats().entries_sent, 2u);
  EXPECT_EQ(agg.stats().entries_received, 2u);
}

TEST_F(DaemonTest, FailoverToSurvivingAggregator) {
  Aggregator agg0(&sim_, &zk_, &staging_, "dc1", "agg0", options_);
  Aggregator agg1(&sim_, &zk_, &staging_, "dc1", "agg1", options_);
  ASSERT_TRUE(agg0.Start().ok());
  ASSERT_TRUE(agg1.Start().ok());
  aggs_ = {&agg0, &agg1};
  ScribeDaemon daemon = MakeDaemon("host0");
  daemon.Start();

  daemon.Log("cat", "before-crash");
  sim_.RunUntil(kT0 + 2 * kMillisPerSecond);
  EXPECT_EQ(daemon.QueuedEntries(), 0u);

  // Kill both; log while dark; restart one; daemon must re-discover.
  agg0.Crash();
  agg1.Crash();
  daemon.Log("cat", "while-dark");
  sim_.RunUntil(kT0 + 10 * kMillisPerSecond);
  EXPECT_EQ(daemon.QueuedEntries(), 1u);  // buffered, not lost

  ASSERT_TRUE(agg1.Start().ok());
  sim_.RunUntil(kT0 + 30 * kMillisPerSecond);
  EXPECT_EQ(daemon.QueuedEntries(), 0u);
  EXPECT_EQ(agg1.stats().entries_received, 1u);
  EXPECT_GE(daemon.stats().rediscoveries, 2u);
}

TEST_F(DaemonTest, BufferLimitDropsOldest) {
  options_.daemon_buffer_limit_bytes = 100;
  ScribeDaemon daemon = MakeDaemon("host0");  // no aggregators at all
  daemon.Start();
  for (int i = 0; i < 10; ++i) {
    daemon.Log("cat", std::string(30, 'x'));
  }
  EXPECT_GT(daemon.stats().entries_dropped, 0u);
  EXPECT_LE(daemon.QueuedEntries() * 30, 100u);
}

TEST_F(DaemonTest, RetryBackoffBoundsRediscoveryRate) {
  // With every aggregator dark, each failed flush doubles the retry delay
  // (capped at daemon_retry_backoff_max_ms, jittered into [1/2, 1]x). Over a
  // ten-minute outage the daemon should poll zk a bounded number of times,
  // not once per flush tick.
  options_.daemon_retry_backoff_ms = 2 * kMillisPerSecond;
  options_.daemon_retry_backoff_max_ms = 60 * kMillisPerSecond;
  auto run_outage = [this]() {
    Simulator sim(kT0);
    zk::ZooKeeper zk(&sim);
    hdfs::MiniHdfs staging(&sim);
    // A registered aggregator whose connection always fails (resolver
    // returns nullptr): every retry attempt shows up as a rediscovery.
    Aggregator ghost(&sim, &zk, &staging, "dc1", "ghost", options_);
    EXPECT_TRUE(ghost.Start().ok());
    auto resolver = [](const std::string&) -> Aggregator* { return nullptr; };
    ScribeDaemon daemon(&sim, &zk, "dc1", "host0", resolver, Rng(42),
                        options_);
    daemon.Start();
    daemon.Log("cat", "stuck");
    sim.RunUntil(kT0 + 10 * kMillisPerMinute);
    return daemon.stats().rediscoveries;
  };
  uint64_t rediscoveries = run_outage();
  // Doubling 2s -> 60s cap with >= 1/2x jitter: ~6 ramp attempts plus at
  // most one per 30s at the cap — far below the ~600 an uncapped 1s flush
  // loop would issue. 30 leaves slack for jitter landing at the low edge.
  EXPECT_GE(rediscoveries, 5u);
  EXPECT_LE(rediscoveries, 30u);
  // Jitter is Rng-seeded, so the schedule is deterministic per seed.
  EXPECT_EQ(run_outage(), rediscoveries);
}

// ---------------------------------------------------------------------------
// Log mover

class LogMoverTest : public ::testing::Test {
 protected:
  LogMoverTest() : sim_(kT0), zk_(&sim_), warehouse_(&sim_) {
    scribe_options_.roll_interval_ms = 10 * kMillisPerSecond;
    mover_options_.run_interval_ms = kMillisPerMinute;
    mover_options_.grace_ms = kMillisPerMinute;
  }

  Simulator sim_;
  zk::ZooKeeper zk_;
  hdfs::MiniHdfs warehouse_;
  ScribeOptions scribe_options_;
  LogMoverOptions mover_options_;
};

TEST_F(LogMoverTest, MovesClosedHourAcrossDatacenters) {
  hdfs::MiniHdfs staging1(&sim_), staging2(&sim_);
  Aggregator agg1(&sim_, &zk_, &staging1, "dc1", "a1", scribe_options_);
  Aggregator agg2(&sim_, &zk_, &staging2, "dc2", "a2", scribe_options_);
  ASSERT_TRUE(agg1.Start().ok());
  ASSERT_TRUE(agg2.Start().ok());
  std::vector<Aggregator*> dc1 = {&agg1}, dc2 = {&agg2};
  LogMover mover(&sim_,
                 {DatacenterHandle{"dc1", &staging1, &dc1},
                  DatacenterHandle{"dc2", &staging2, &dc2}},
                 &warehouse_, mover_options_);
  mover.Start(kT0);

  ASSERT_TRUE(agg1.Receive({{"client_events", "from-dc1-a"},
                            {"client_events", "from-dc1-b"}})
                  .ok());
  ASSERT_TRUE(agg2.Receive({{"client_events", "from-dc2"}}).ok());
  agg1.RollAll();
  agg2.RollAll();

  // Run past the hour close + grace; the mover should slide the hour.
  sim_.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);
  std::string dir = "/logs/client_events/2012/08/21/00";
  ASSERT_TRUE(warehouse_.Exists(dir));
  auto files = warehouse_.ListRecursive(dir);
  ASSERT_TRUE(files.ok());
  ASSERT_GE(files->size(), 1u);

  // All three messages present after decompress+unframe.
  std::vector<std::string> all;
  for (const auto& f : *files) {
    auto body = warehouse_.ReadFile(f.path);
    ASSERT_TRUE(body.ok());
    auto raw = Lz::Decompress(*body);
    ASSERT_TRUE(raw.ok());
    auto msgs = UnframeMessages(*raw);
    ASSERT_TRUE(msgs.ok());
    for (auto& m : *msgs) all.push_back(std::move(m));
  }
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(mover.stats().messages_moved, 3u);
  EXPECT_EQ(mover.stats().hours_moved, 1u);

  // Staging is cleaned up.
  EXPECT_FALSE(staging1.Exists("/staging/client_events/2012/08/21/00"));
  EXPECT_FALSE(staging2.Exists("/staging/client_events/2012/08/21/00"));
}

TEST_F(LogMoverTest, BarrierWaitsForUnflushedAggregator) {
  hdfs::MiniHdfs staging1(&sim_);
  Aggregator agg(&sim_, &zk_, &staging1, "dc1", "a1", scribe_options_);
  ASSERT_TRUE(agg.Start().ok());
  std::vector<Aggregator*> dc1 = {&agg};
  LogMover mover(&sim_, {DatacenterHandle{"dc1", &staging1, &dc1}},
                 &warehouse_, mover_options_);
  mover.Start(kT0);

  // Simulate an HDFS outage so the periodic roll cannot flush: data for
  // hour 0 stays buffered past the hour boundary.
  ASSERT_TRUE(agg.Receive({{"cat", "stuck"}}).ok());
  staging1.SetAvailable(false);
  sim_.RunUntil(kT0 + kMillisPerHour + 10 * kMillisPerMinute);
  EXPECT_EQ(mover.next_hour(), TruncateToHour(kT0));  // barrier holds

  // Outage ends; aggregator flushes on its timer; mover advances.
  staging1.SetAvailable(true);
  sim_.RunUntil(kT0 + kMillisPerHour + 20 * kMillisPerMinute);
  EXPECT_GT(mover.next_hour(), TruncateToHour(kT0));
  EXPECT_TRUE(warehouse_.Exists("/logs/cat/2012/08/21/00"));
}

TEST_F(LogMoverTest, CorruptStagingFileSkippedNotFatal) {
  hdfs::MiniHdfs staging1(&sim_);
  std::vector<Aggregator*> none;
  LogMover mover(&sim_, {DatacenterHandle{"dc1", &staging1, &none}},
                 &warehouse_, mover_options_);
  mover.Start(kT0);

  // One good file, one garbage file.
  std::string good = Lz::Compress(FrameMessages({"ok-message"}));
  ASSERT_TRUE(
      staging1.WriteFile("/staging/cat/2012/08/21/00/good", good).ok());
  ASSERT_TRUE(
      staging1.WriteFile("/staging/cat/2012/08/21/00/bad", "garbage!").ok());
  sim_.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);
  EXPECT_TRUE(warehouse_.Exists("/logs/cat/2012/08/21/00"));
  EXPECT_EQ(mover.stats().messages_moved, 1u);
  EXPECT_EQ(mover.stats().corrupt_files_skipped, 1u);
}

TEST_F(LogMoverTest, MergesManySmallFilesIntoFew) {
  hdfs::MiniHdfs staging1(&sim_);
  std::vector<Aggregator*> none;
  mover_options_.target_file_bytes = 1 << 20;
  LogMover mover(&sim_, {DatacenterHandle{"dc1", &staging1, &none}},
                 &warehouse_, mover_options_);
  mover.Start(kT0);
  for (int i = 0; i < 40; ++i) {
    std::string body =
        Lz::Compress(FrameMessages({"m" + std::to_string(i)}));
    ASSERT_TRUE(staging1
                    .WriteFile("/staging/cat/2012/08/21/00/f" +
                                   std::to_string(i),
                               body)
                    .ok());
  }
  sim_.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);
  auto files = warehouse_.ListRecursive("/logs/cat/2012/08/21/00");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 1u);  // 40 small files → 1 big file
  EXPECT_EQ(mover.stats().staging_files_read, 40u);
  EXPECT_EQ(mover.stats().messages_moved, 40u);
}

TEST_F(LogMoverTest, ColumnarCategoryWritesRcFileParts) {
  hdfs::MiniHdfs staging1(&sim_);
  std::vector<Aggregator*> none;
  mover_options_.columnar_categories = {"client_events"};
  LogMover mover(&sim_, {DatacenterHandle{"dc1", &staging1, &none}},
                 &warehouse_, mover_options_);
  mover.Start(kT0);

  // An hour of parseable client events plus one foreign message.
  std::vector<std::string> messages;
  std::vector<events::ClientEvent> staged;
  for (int i = 0; i < 6; ++i) {
    events::ClientEvent ev;
    ev.initiator = events::EventInitiator::kClientUser;
    ev.event_name = i % 2 == 0 ? "web:home:::tweet:click"
                               : "web:home:::tweet:impression";
    ev.user_id = 100 + i;
    ev.session_id = "s" + std::to_string(i);
    ev.ip = "10.0.0.1";
    ev.timestamp = kT0 + i * 1000;
    staged.push_back(ev);
    messages.push_back(ev.Serialize());
  }
  messages.push_back("not-a-client-event");
  ASSERT_TRUE(staging1
                  .WriteFile("/staging/client_events/2012/08/21/00/f0",
                             Lz::Compress(FrameMessages(messages)))
                  .ok());
  sim_.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);

  auto files = warehouse_.ListRecursive("/logs/client_events/2012/08/21/00");
  ASSERT_TRUE(files.ok());
  std::vector<events::ClientEvent> columnar_rows;
  std::vector<std::string> sidecar_messages;
  for (const auto& f : *files) {
    auto body = warehouse_.ReadFile(f.path);
    ASSERT_TRUE(body.ok());
    if (columnar::IsRcFile(*body)) {
      columnar::RcFileReader reader(*body);
      ASSERT_TRUE(reader.ReadAll(columnar::kAllColumns, &columnar_rows).ok());
    } else {
      // The fallback sidecar keeps unparseable messages verbatim.
      auto raw = Lz::Decompress(*body);
      ASSERT_TRUE(raw.ok());
      auto msgs = UnframeMessages(*raw);
      ASSERT_TRUE(msgs.ok());
      for (auto& m : *msgs) sidecar_messages.push_back(std::move(m));
    }
  }
  EXPECT_EQ(columnar_rows, staged);
  ASSERT_EQ(sidecar_messages.size(), 1u);
  EXPECT_EQ(sidecar_messages[0], "not-a-client-event");

  // Audit stays balanced: every merged message is accounted as moved.
  EXPECT_EQ(mover.stats().messages_moved, 7u);
  EXPECT_GE(mover.stats().columnar_files_written, 1u);
  EXPECT_EQ(mover.stats().columnar_parse_fallbacks, 1u);
}

TEST_F(LogMoverTest, ColumnarCategorySkipsEtwinIndex) {
  hdfs::MiniHdfs staging1(&sim_);
  std::vector<Aggregator*> none;
  mover_options_.columnar_categories = {"client_events"};
  mover_options_.index_categories = {"client_events"};
  LogMover mover(&sim_, {DatacenterHandle{"dc1", &staging1, &none}},
                 &warehouse_, mover_options_);
  mover.Start(kT0);

  events::ClientEvent ev;
  ev.event_name = "web:home:::tweet:click";
  ev.user_id = 1;
  ev.session_id = "s";
  ev.ip = "10.0.0.1";
  ev.timestamp = kT0;
  ASSERT_TRUE(staging1
                  .WriteFile("/staging/client_events/2012/08/21/00/f0",
                             Lz::Compress(FrameMessages({ev.Serialize()})))
                  .ok());
  sim_.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);

  std::string hour_dir = "/logs/client_events/2012/08/21/00";
  ASSERT_TRUE(warehouse_.Exists(hour_dir));
  // Zone maps and dictionaries in the RCFile headers subsume the index.
  EXPECT_FALSE(warehouse_.Exists(hour_dir + "/_etwin_index"));
}

TEST_F(LogMoverTest, LateStagedFileForMovedHourDroppedViaRetryPath) {
  // Regression: when the hour's warehouse directory already exists (a
  // previous attempt succeeded for this category), MoveCategoryHour used
  // to return early and leak whatever sat in staging forever, uncounted.
  hdfs::MiniHdfs staging1(&sim_);
  std::vector<Aggregator*> none;
  LogMover mover(&sim_, {DatacenterHandle{"dc1", &staging1, &none}},
                 &warehouse_, mover_options_);
  mover.Start(kT0);

  ASSERT_TRUE(warehouse_.Mkdirs("/logs/cat/2012/08/21/00").ok());
  std::string body = Lz::Compress(FrameMessages({"late-1", "late-2"}));
  ASSERT_TRUE(
      staging1.WriteFile("/staging/cat/2012/08/21/00/straggler", body).ok());
  sim_.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);

  EXPECT_EQ(mover.stats().late_files_dropped, 1u);
  EXPECT_EQ(mover.stats().late_entries_dropped, 2u);
  EXPECT_FALSE(staging1.Exists("/staging/cat/2012/08/21/00"));
  EXPECT_GT(mover.next_hour(), TruncateToHour(kT0));  // hour not stuck
}

TEST_F(LogMoverTest, SweepDropsStragglersStagedAfterHourMoved) {
  hdfs::MiniHdfs staging1(&sim_);
  std::vector<Aggregator*> none;
  LogMover mover(&sim_, {DatacenterHandle{"dc1", &staging1, &none}},
                 &warehouse_, mover_options_);
  mover.Start(kT0);

  std::string good = Lz::Compress(FrameMessages({"on-time"}));
  ASSERT_TRUE(
      staging1.WriteFile("/staging/cat/2012/08/21/00/good", good).ok());
  sim_.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);
  ASSERT_EQ(mover.stats().messages_moved, 1u);

  // A straggler for the already-moved hour appears later; the periodic
  // sweep must drop and count it instead of leaking it.
  std::string late = Lz::Compress(FrameMessages({"too-late"}));
  ASSERT_TRUE(
      staging1.WriteFile("/staging/cat/2012/08/21/00/late", late).ok());
  sim_.RunUntil(kT0 + kMillisPerHour + 10 * kMillisPerMinute);
  EXPECT_EQ(mover.stats().late_files_dropped, 1u);
  EXPECT_EQ(mover.stats().late_entries_dropped, 1u);
  EXPECT_FALSE(staging1.Exists("/staging/cat/2012/08/21/00"));
  // The on-time data is untouched.
  EXPECT_TRUE(warehouse_.Exists("/logs/cat/2012/08/21/00"));
  EXPECT_EQ(mover.stats().messages_moved, 1u);
}

TEST_F(LogMoverTest, BarrierStallAndMoveRetryCountedSeparately) {
  // Regression: MoveHour failures (warehouse outage) used to be counted
  // as barrier_stalls, hiding real barrier behavior from operators.
  hdfs::MiniHdfs staging1(&sim_);
  Aggregator agg(&sim_, &zk_, &staging1, "dc1", "a1", scribe_options_);
  ASSERT_TRUE(agg.Start().ok());
  std::vector<Aggregator*> dc1 = {&agg};
  LogMover mover(&sim_, {DatacenterHandle{"dc1", &staging1, &dc1}},
                 &warehouse_, mover_options_);
  mover.Start(kT0);

  // Phase 1 — staging outage keeps the aggregator unflushed past the hour
  // close: barrier stalls, no move retries.
  ASSERT_TRUE(agg.Receive({{"cat", "stuck"}}).ok());
  staging1.SetAvailable(false);
  sim_.RunUntil(kT0 + kMillisPerHour + 5 * kMillisPerMinute);
  EXPECT_GT(mover.stats().barrier_stalls, 0u);
  EXPECT_EQ(mover.stats().move_retries, 0u);

  // Phase 2 — aggregator flushes, but the warehouse is down: the move
  // itself fails and is retried, with no new barrier stalls.
  staging1.SetAvailable(true);
  warehouse_.SetAvailable(false);
  uint64_t stalls_before = mover.stats().barrier_stalls;
  sim_.RunUntil(kT0 + kMillisPerHour + 15 * kMillisPerMinute);
  EXPECT_GT(mover.stats().move_retries, 0u);
  EXPECT_EQ(mover.stats().barrier_stalls, stalls_before);

  // Phase 3 — warehouse recovers; the hour moves with nothing lost.
  warehouse_.SetAvailable(true);
  sim_.RunUntil(kT0 + kMillisPerHour + 25 * kMillisPerMinute);
  EXPECT_EQ(mover.stats().messages_moved, 1u);
  EXPECT_TRUE(warehouse_.Exists("/logs/cat/2012/08/21/00"));
}

// Two datacenters of aggregator chains landing framed parts. The
// aggregators stage with the single-probe parse and the mover compresses
// each merged hour again with the chain search, so staging's parse must
// never reach the warehouse: the digest of every part's path and bytes
// was recorded by this scenario built against the library from before the
// aggregators changed parse.
TEST_F(LogMoverTest, AggregatorChainWarehouseBytesArePinned) {
  ClusterTopology topo;
  topo.datacenters = {"dc1", "dc2"};
  topo.aggregators_per_dc = 2;
  topo.daemons_per_dc = 3;
  scribe_options_.roll_interval_ms = 30 * kMillisPerSecond;
  mover_options_.run_interval_ms = 2 * kMillisPerMinute;
  ScribeCluster cluster(&sim_, topo, scribe_options_, mover_options_,
                        /*seed=*/5);
  ASSERT_TRUE(cluster.Start().ok());

  static const char* const kNames[] = {
      "web:home:mentions:stream:avatar:profile_click",
      "web:home:home:stream:tweet:impression",
      "iphone:home:home:stream:tweet:favorite",
      "web:search:results:stream:user:follow"};
  Rng rng(30);
  constexpr int kMessages = 12000;
  for (int i = 0; i < kMessages; ++i) {
    const TimeMs at = kT0 + (i * 100 * kMillisPerMinute) / kMessages;
    std::string message = kNames[rng.Uniform(4)];
    message += "|uid=" + std::to_string(1000 + rng.Uniform(300));
    message += "|ts=" + std::to_string(at + rng.Uniform(1000));
    LogEntry entry{i % 3 == 0 ? "search" : "client_events",
                   std::move(message)};
    sim_.At(at, [&cluster, i, entry] { cluster.Log(i % 2, entry); });
  }

  // Mid-hour, every staged roll is the single-probe parse of its body,
  // and some differ from the chain search's bytes for the same body.
  sim_.RunUntil(kT0 + 30 * kMillisPerMinute);
  size_t staged = 0, unlike_chain = 0;
  for (size_t dc = 0; dc < cluster.datacenter_count(); ++dc) {
    auto files = cluster.staging(dc)->ListRecursive("/staging");
    ASSERT_TRUE(files.ok());
    for (const auto& f : *files) {
      if (f.is_dir) continue;
      auto body = cluster.staging(dc)->ReadFile(f.path);
      ASSERT_TRUE(body.ok());
      auto raw = Lz::Decompress(*body);
      ASSERT_TRUE(raw.ok()) << f.path;
      EXPECT_EQ(*body, lz_reference::FastCompress(*raw)) << f.path;
      ++staged;
      if (*body != lz_reference::Compress(*raw)) ++unlike_chain;
    }
  }
  EXPECT_GT(staged, 0u);
  EXPECT_GT(unlike_chain, 0u);

  sim_.RunUntil(kT0 + 3 * kMillisPerHour);
  ClusterStats stats = cluster.TotalStats();
  EXPECT_EQ(stats.entries_logged, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.messages_in_warehouse, static_cast<uint64_t>(kMessages));
  auto parts = cluster.warehouse()->ListRecursive("/logs");
  ASSERT_TRUE(parts.ok());
  Fnv1a64 digest;
  size_t part_count = 0;
  for (const auto& f : *parts) {
    if (f.is_dir) continue;
    auto body = cluster.warehouse()->ReadFile(f.path);
    ASSERT_TRUE(body.ok()) << f.path;
    auto raw = Lz::Decompress(*body);
    ASSERT_TRUE(raw.ok()) << f.path;
    EXPECT_EQ(*body, lz_reference::Compress(*raw)) << f.path;
    digest.Mix(f.path);
    digest.Mix(*body);
    ++part_count;
  }
  EXPECT_EQ(part_count, 4u);
  EXPECT_EQ(digest.value(), 4377834501800413288ull);
}

// ---------------------------------------------------------------------------
// Full cluster integration

TEST(ScribeClusterTest, EndToEndDeliveryConservation) {
  Simulator sim(kT0);
  ClusterTopology topo;
  topo.datacenters = {"dc1", "dc2"};
  topo.aggregators_per_dc = 2;
  topo.daemons_per_dc = 4;
  ScribeOptions sopts;
  sopts.roll_interval_ms = 30 * kMillisPerSecond;
  LogMoverOptions mopts;
  mopts.run_interval_ms = 2 * kMillisPerMinute;
  mopts.grace_ms = kMillisPerMinute;
  ScribeCluster cluster(&sim, topo, sopts, mopts, /*seed=*/7);
  ASSERT_TRUE(cluster.Start().ok());

  // Produce traffic for 90 minutes of virtual time.
  const int kMessages = 2000;
  for (int i = 0; i < kMessages; ++i) {
    TimeMs at = kT0 + (i * 90 * kMillisPerMinute) / kMessages;
    size_t dc = i % 2;
    sim.At(at, [&cluster, dc, i]() {
      cluster.Log(dc, LogEntry{"client_events", "m" + std::to_string(i)});
    });
  }
  // Run long enough for hour 0 to be moved (closed at +60m, grace +1m).
  sim.RunUntil(kT0 + 2 * kMillisPerHour + 10 * kMillisPerMinute);

  ClusterStats stats = cluster.TotalStats();
  EXPECT_EQ(stats.entries_logged, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.entries_dropped_at_daemons, 0u);
  EXPECT_EQ(stats.entries_lost_in_crashes, 0u);
  // Hour 0 (two-thirds of the messages) must be in the warehouse.
  EXPECT_TRUE(cluster.warehouse()->Exists("/logs/client_events/2012/08/21/00"));
  EXPECT_GT(stats.messages_in_warehouse, 0u);
}

TEST(ScribeClusterTest, AggregatorCrashCausesBoundedLossOnly) {
  Simulator sim(kT0);
  ClusterTopology topo;
  topo.datacenters = {"dc1"};
  topo.aggregators_per_dc = 2;
  topo.daemons_per_dc = 3;
  ScribeOptions sopts;
  sopts.roll_interval_ms = 20 * kMillisPerSecond;
  LogMoverOptions mopts;
  mopts.run_interval_ms = 2 * kMillisPerMinute;
  ScribeCluster cluster(&sim, topo, sopts, mopts, /*seed=*/11);
  ASSERT_TRUE(cluster.Start().ok());

  const int kMessages = 1000;
  for (int i = 0; i < kMessages; ++i) {
    TimeMs at = kT0 + (i * 40 * kMillisPerMinute) / kMessages;
    sim.At(at, [&cluster, i]() {
      cluster.Log(0, LogEntry{"client_events", "m" + std::to_string(i)});
    });
  }
  // Crash one aggregator mid-stream; restart it later.
  sim.At(kT0 + 15 * kMillisPerMinute, [&]() { cluster.CrashAggregator(0, 0); });
  sim.At(kT0 + 25 * kMillisPerMinute,
         [&]() { ASSERT_TRUE(cluster.RestartAggregator(0, 0).ok()); });
  sim.RunUntil(kT0 + 2 * kMillisPerHour);

  ClusterStats stats = cluster.TotalStats();
  EXPECT_EQ(stats.entries_logged, static_cast<uint64_t>(kMessages));
  // Loss is bounded by one roll interval's worth of buffered messages.
  EXPECT_LT(stats.entries_lost_in_crashes, 300u);
  // Delivered messages = logged - crash loss (hour 0 fully moved).
  EXPECT_EQ(stats.messages_in_warehouse,
            stats.entries_logged - stats.entries_lost_in_crashes);
  // Daemons noticed and re-discovered.
  EXPECT_GE(stats.daemon_rediscoveries, 1u);
}

TEST(ScribeClusterTest, StagingOutageDelaysButDoesNotLose) {
  Simulator sim(kT0);
  ClusterTopology topo;
  topo.datacenters = {"dc1"};
  topo.aggregators_per_dc = 1;
  topo.daemons_per_dc = 2;
  ScribeOptions sopts;
  sopts.roll_interval_ms = 20 * kMillisPerSecond;
  LogMoverOptions mopts;
  mopts.run_interval_ms = 2 * kMillisPerMinute;
  ScribeCluster cluster(&sim, topo, sopts, mopts, /*seed=*/13);
  ASSERT_TRUE(cluster.Start().ok());

  const int kMessages = 500;
  for (int i = 0; i < kMessages; ++i) {
    TimeMs at = kT0 + (i * 50 * kMillisPerMinute) / kMessages;
    sim.At(at, [&cluster, i]() {
      cluster.Log(0, LogEntry{"client_events", "m" + std::to_string(i)});
    });
  }
  // 20-minute staging outage in the middle of the hour.
  sim.At(kT0 + 10 * kMillisPerMinute,
         [&]() { cluster.SetStagingAvailable(0, false); });
  sim.At(kT0 + 30 * kMillisPerMinute,
         [&]() { cluster.SetStagingAvailable(0, true); });
  sim.RunUntil(kT0 + 2 * kMillisPerHour);

  ClusterStats stats = cluster.TotalStats();
  EXPECT_EQ(stats.entries_logged, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.entries_lost_in_crashes, 0u);
  EXPECT_EQ(stats.messages_in_warehouse, static_cast<uint64_t>(kMessages));
}

TEST_F(AggregatorTest, OverflowDuringOutageDoesNotCorruptPooledRolls) {
  // Drop-oldest overflow during an outage interleaves with failed rolls
  // that leave their bytes in the aggregator's roll scratch; the eventual
  // successful roll must stage exactly the surviving messages,
  // byte-identical to a fresh staging compressor's block of them.
  options_.aggregator_buffer_limit_bytes = 64;
  Aggregator agg(&sim_, &zk_, &staging_, "dc1", "agg0", options_);
  ASSERT_TRUE(agg.Start().ok());

  staging_.SetAvailable(false);
  ASSERT_TRUE(agg.Receive({{"cat", std::string(30, 'a')}}).ok());
  agg.RollAll();  // fails: outage; pooled buffers released back
  ASSERT_TRUE(agg.Receive({{"cat", std::string(30, 'b')}}).ok());
  ASSERT_TRUE(agg.Receive({{"cat", std::string(30, 'c')}}).ok());  // drops 'a'
  EXPECT_EQ(agg.stats().entries_dropped_overflow, 1u);
  EXPECT_GE(agg.stats().hdfs_write_failures, 1u);

  staging_.SetAvailable(true);
  agg.RollAll();
  auto files = staging_.ListRecursive("/staging/cat");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  auto body = staging_.ReadFile((*files)[0].path);
  ASSERT_TRUE(body.ok());
  std::vector<std::string> survivors = {std::string(30, 'b'),
                                        std::string(30, 'c')};
  EXPECT_EQ(*body, Lz::FastCompressor().Compress(FrameMessages(survivors)));
  auto raw = Lz::Decompress(*body);
  ASSERT_TRUE(raw.ok());
  auto msgs = UnframeMessages(*raw);
  ASSERT_TRUE(msgs.ok());
  EXPECT_EQ(*msgs, survivors);
}

// ---------------------------------------------------------------------------
// Parallel log mover

// Stages a deterministic mixed workload for one (category, hour): many
// small compressed files across two datacenters plus one corrupt file.
void StageParallelMoverWorkload(hdfs::MiniHdfs* staging1,
                                hdfs::MiniHdfs* staging2) {
  for (int i = 0; i < 24; ++i) {
    std::vector<std::string> msgs;
    for (int m = 0; m < 8; ++m) {
      msgs.push_back("dc" + std::to_string(i % 2) + "-f" + std::to_string(i) +
                     "-m" + std::to_string(m) + std::string(200, 'x'));
    }
    hdfs::MiniHdfs* fs = (i % 2 == 0) ? staging1 : staging2;
    char name[16];
    std::snprintf(name, sizeof(name), "f%03d", i);
    ASSERT_TRUE(fs->WriteFile("/staging/cat/2012/08/21/00/" +
                                  std::string(name),
                              Lz::Compress(FrameMessages(msgs)))
                    .ok());
  }
  ASSERT_TRUE(
      staging1->WriteFile("/staging/cat/2012/08/21/00/zz-corrupt", "junk!")
          .ok());
}

// Runs the mover over the staged workload and returns the warehouse as a
// path→bytes map.
std::map<std::string, std::string> RunMoverOverWorkload(
    exec::Executor* executor) {
  Simulator sim(kT0);
  hdfs::MiniHdfs staging1(&sim), staging2(&sim), warehouse(&sim);
  StageParallelMoverWorkload(&staging1, &staging2);
  std::vector<Aggregator*> none;
  LogMoverOptions mopts;
  mopts.run_interval_ms = kMillisPerMinute;
  mopts.grace_ms = kMillisPerMinute;
  mopts.target_file_bytes = 4096;  // forces several parts per hour
  mopts.executor = executor;
  LogMover mover(&sim,
                 {DatacenterHandle{"dc1", &staging1, &none},
                  DatacenterHandle{"dc2", &staging2, &none}},
                 &warehouse, mopts);
  mover.Start(kT0);
  sim.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);
  EXPECT_EQ(mover.stats().corrupt_files_skipped, 1u);
  EXPECT_EQ(mover.stats().messages_moved, 24u * 8u);
  std::map<std::string, std::string> out;
  auto files = warehouse.ListRecursive("/logs/cat/2012/08/21/00");
  EXPECT_TRUE(files.ok());
  if (files.ok()) {
    for (const auto& f : *files) {
      auto body = warehouse.ReadFile(f.path);
      EXPECT_TRUE(body.ok());
      if (body.ok()) out[f.path] = *body;
    }
  }
  return out;
}

TEST_F(LogMoverTest, ParallelMoverByteIdenticalToSerial) {
  std::map<std::string, std::string> serial = RunMoverOverWorkload(nullptr);
  ASSERT_GT(serial.size(), 1u);  // the small target produced several parts

  exec::ExecOptions eo;
  eo.threads = 4;
  exec::Executor executor4(eo);
  std::map<std::string, std::string> parallel =
      RunMoverOverWorkload(&executor4);

  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [path, bytes] : serial) {
    auto it = parallel.find(path);
    ASSERT_NE(it, parallel.end()) << path;
    EXPECT_EQ(it->second, bytes) << path;
  }

  // And a second parallel run is identical too (no run-to-run jitter).
  exec::Executor executor2(exec::ExecOptions{.threads = 2});
  EXPECT_EQ(RunMoverOverWorkload(&executor2), parallel);
}

TEST_F(LogMoverTest, ParallelMoverCountsWorkItems) {
  Simulator sim(kT0);
  hdfs::MiniHdfs staging1(&sim), staging2(&sim), warehouse(&sim);
  StageParallelMoverWorkload(&staging1, &staging2);
  std::vector<Aggregator*> none;
  obs::MetricsRegistry metrics(&sim);
  exec::Executor executor(exec::ExecOptions{.threads = 3});
  executor.set_metrics(&metrics);
  LogMoverOptions mopts;
  mopts.run_interval_ms = kMillisPerMinute;
  mopts.grace_ms = kMillisPerMinute;
  mopts.target_file_bytes = 4096;
  mopts.executor = &executor;
  LogMover mover(&sim,
                 {DatacenterHandle{"dc1", &staging1, &none},
                  DatacenterHandle{"dc2", &staging2, &none}},
                 &warehouse, mopts, &metrics);
  mover.Start(kT0);
  sim.RunUntil(kT0 + kMillisPerHour + 3 * kMillisPerMinute);

  // Both fanned-out stages saw work, counted by the executor's own
  // per-stage series (the corrupt file still counts as an unstage task;
  // parts were planned from 24 good files).
  auto tasks = [&](const char* stage) {
    return metrics.GetCounter("exec_tasks", {{"stage", stage}})->value();
  };
  EXPECT_EQ(tasks("mover.unstage"), 25u);
  EXPECT_GT(tasks("mover.build_parts"), 1u);
}

TEST(ScribeClusterTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulator sim(kT0);
    ClusterTopology topo;
    topo.datacenters = {"dc1", "dc2"};
    ScribeCluster cluster(&sim, topo, ScribeOptions{}, LogMoverOptions{},
                          seed);
    EXPECT_TRUE(cluster.Start().ok());
    for (int i = 0; i < 200; ++i) {
      TimeMs at = kT0 + i * 500;
      size_t dc = i % 2;
      sim.At(at, [&cluster, dc, i]() {
        cluster.Log(dc, LogEntry{"cat", "m" + std::to_string(i)});
      });
    }
    sim.RunUntil(kT0 + 90 * kMillisPerMinute);
    ClusterStats s = cluster.TotalStats();
    return std::make_tuple(s.entries_logged, s.messages_in_warehouse,
                           sim.EventsProcessed());
  };
  EXPECT_EQ(run(99), run(99));
}

}  // namespace
}  // namespace unilog::scribe
