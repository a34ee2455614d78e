// Allocation budget of the per-record delivery path. This binary replaces
// the global operator new with the counting one from bench/alloc_hooks.h
// (so it must stay its own executable) and pins how many allocations a
// one-record daemon flush into a quiescent acks=all fleet costs: the
// daemon's framing and compression, the leader's produce and the
// synchronous replication to the follower. A change that adds a per-call
// allocation anywhere on that path fails here without running the bench.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "alloc_hooks.h"
#include "broker/broker.h"
#include "broker/fleet.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "scribe/daemon.h"
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
  ScribeDaemon daemon(
      &sim, &zk, "dc1", "dc1-host0",
      [](const std::string&) -> Aggregator* { return nullptr; }, Rng(7),
      ScribeOptions{}, &metrics);
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

}  // namespace
}  // namespace unilog::scribe
