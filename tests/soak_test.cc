// Tests for the fleet-scale soak/chaos harness: deterministic chaos
// plans, a scaled-down green run, reproducibility from the seed alone,
// and the fault-injection self-test proving that unrecovered loss can
// never pass the quiescence gate.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "broker/broker.h"
#include "scribe/cluster.h"
#include "sim/simulator.h"
#include "soak/chaos.h"
#include "soak/harness.h"
#include "soak/slo.h"

namespace unilog::soak {
namespace {

// The full soak configuration scaled down to unit-test size: same code
// path, mixed aggregator/broker fleet, sharded HDFS, two orders of
// magnitude fewer events.
SoakOptions SmallOptions() {
  SoakOptions o;
  o.seed = 42;
  o.hours = 3;
  o.daemons_per_dc = 30;
  o.aggregators_per_dc = 2;
  o.brokers_per_dc = 3;
  o.staging_datanodes = 3;
  o.staging_replication = 2;
  o.warehouse_datanodes = 4;
  o.warehouse_replication = 3;
  o.users_per_hour = 400;
  o.drain_ms = 2 * kMillisPerHour;
  o.scrub_interval_ms = kMillisPerHour;
  o.sample_interval_ms = 5 * kMillisPerMinute;
  o.oink_hours = 2;
  return o;
}

scribe::ClusterTopology MixedTopology() {
  scribe::ClusterTopology topo;
  topo.datacenters = {"east", "west"};
  topo.broker_datacenters = {"west"};
  topo.aggregators_per_dc = 4;
  topo.daemons_per_dc = 100;
  topo.brokers_per_dc = 5;
  topo.staging_hdfs.num_datanodes = 6;
  topo.staging_hdfs.replication = 2;
  topo.warehouse_hdfs.num_datanodes = 8;
  topo.warehouse_hdfs.replication = 3;
  return topo;
}

TEST(ChaosScheduleTest, SameSeedSameScheduleDifferentSeedDiffers) {
  const scribe::ClusterTopology topo = MixedTopology();
  const TimeMs start = MakeDate(2012, 8, 20);
  const TimeMs end = start + 48 * kMillisPerHour;
  ChaosScheduleOptions options;

  ChaosSchedule a = ChaosSchedule::Generate(options, topo, start, end, 7);
  ChaosSchedule b = ChaosSchedule::Generate(options, topo, start, end, 7);
  EXPECT_EQ(a.ToString(), b.ToString());
  ASSERT_GT(a.events().size(), 0u);

  ChaosSchedule c = ChaosSchedule::Generate(options, topo, start, end, 8);
  EXPECT_NE(a.ToString(), c.ToString());
}

TEST(ChaosScheduleTest, EventsSortedInWindowAndCoverEveryKind) {
  const scribe::ClusterTopology topo = MixedTopology();
  const TimeMs start = MakeDate(2012, 8, 20);
  const TimeMs end = start + 48 * kMillisPerHour;
  ChaosSchedule plan =
      ChaosSchedule::Generate(ChaosScheduleOptions{}, topo, start, end, 42);

  std::set<ChaosKind> kinds;
  TimeMs prev = 0;
  for (const ChaosEvent& ev : plan.events()) {
    EXPECT_GE(ev.at, start);
    EXPECT_LT(ev.at, end);
    EXPECT_GE(ev.at, prev);  // sorted by time
    prev = ev.at;
    kinds.insert(ev.kind);
    // Broker faults and zk storms only in the brokered DC; aggregator
    // faults only where aggregator chains run.
    if (ev.kind == ChaosKind::kBrokerCrash ||
        ev.kind == ChaosKind::kZkExpiryStorm) {
      EXPECT_TRUE(topo.BrokeredDatacenter(topo.datacenters[ev.dc]))
          << ev.ToString();
    }
    if (ev.kind == ChaosKind::kAggregatorCrash) {
      EXPECT_FALSE(topo.BrokeredDatacenter(topo.datacenters[ev.dc]))
          << ev.ToString();
    }
  }
  // Two simulated days at the default rates exercise every fault class.
  EXPECT_EQ(kinds.size(), 7u);
}

TEST(SoakHarnessTest, SmallScaleRunPassesWithBalancedQuiescentAudit) {
  SoakHarness harness(SmallOptions());
  auto result = harness.Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_TRUE(result->passed) << result->ToString();
  EXPECT_TRUE(result->slo.ok()) << result->slo.ToString();
  EXPECT_TRUE(result->slo.audit_quiescent) << result->slo.audit_detail;
  EXPECT_TRUE(result->audit.Balanced()) << result->audit.ToString();
  EXPECT_GT(result->events_logged, 0u);
  EXPECT_GT(result->audit.warehoused, 0u);
  EXPECT_EQ(result->daemons, 60u);  // both DCs
  // The post-drain Oink cold+warm pass ran and hit its cache.
  EXPECT_GE(result->oink_warm_hit_rate, 0.9);
}

TEST(SoakHarnessTest, SameSeedReproducesTheIdenticalRun) {
  auto first = SoakHarness(SmallOptions()).Run();
  auto second = SoakHarness(SmallOptions()).Run();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // The whole report — counts, audit identity, SLO observations — must
  // be byte-identical: a violation reproduces from its printed seed.
  EXPECT_EQ(first->ToString(), second->ToString());
  EXPECT_EQ(first->events_logged, second->events_logged);
  EXPECT_EQ(first->chaos_events, second->chaos_events);
  EXPECT_EQ(first->audit.warehoused, second->audit.warehoused);
}

// A cross-version pin: the seed-42 report (counts, audit identity, SLO
// observations) hashed with FNV-1a. SameSeedReproducesTheIdenticalRun only
// compares a binary with itself; this catches a change that moves any
// simulated event's time or order, because such a change moves the report.
TEST(SoakHarnessTest, SeedFortyTwoReportIsPinned) {
  auto result = SoakHarness(SmallOptions()).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string report = result->ToString();
  EXPECT_EQ(broker::StableHash(report), 0x943cd5a3d7ff6473ull) << report;
}

// An idle fleet shaped like the log_to_query bench (8 daemons, 4 brokers,
// 4 partitions, RF 2) processes exactly its periodic timers for 72 hours:
// each daemon's 1 s flush, each broker's 500 ms replica fetch, and one
// candidates-watch delivery per partition at topic creation. Any timer
// added, removed or moved to a different phase changes the count.
TEST(SoakHarnessTest, IdleFleetRunsOnlyItsPeriodicTimers) {
  constexpr int64_t kSeconds = 72 * 3600;
  Simulator sim(0);
  scribe::ClusterTopology topo;
  topo.datacenters = {"dc1"};
  topo.daemons_per_dc = 8;
  topo.brokers_per_dc = 4;
  topo.broker_options.num_partitions = 4;
  topo.broker_options.replication_factor = 2;
  topo.broker_options.acks = broker::kAcksAll;
  scribe::LogMoverOptions mover;
  mover.run_interval_ms = 3650 * kMillisPerDay;  // outside the window
  scribe::ScribeCluster cluster(&sim, topo, scribe::ScribeOptions{}, mover,
                                42);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.fleet(0)->EnsureTopic("client_event").ok());
  sim.RunUntil(kSeconds * kMillisPerSecond);
  EXPECT_EQ(sim.EventsProcessed(), 4147204u);
  EXPECT_EQ(sim.EventsProcessed(),
            static_cast<uint64_t>((8 * 1 + 4 * 2) * kSeconds + 4));
  // One pending event per timer: 8 flushes, 4 fetches and the mover.
  EXPECT_EQ(sim.PendingEvents(), 13u);
}

TEST(SoakHarnessTest, InjectedUnrecoveredLossFailsTheRun) {
  SoakOptions options = SmallOptions();
  options.inject_unrecovered_loss = true;
  auto result = SoakHarness(options).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The deleted staged file bypassed every accounting hook, so the run
  // must fail at the quiescence gate: in_flight_staging can never drain.
  EXPECT_FALSE(result->passed) << result->ToString();
  EXPECT_FALSE(result->slo.audit_quiescent);
  EXPECT_GT(result->audit.in_flight_staging, 0u) << result->audit.ToString();
  bool flagged = false;
  for (const SloViolation& v : result->slo.violations) {
    if (v.name == "audit_quiescent") flagged = true;
  }
  EXPECT_TRUE(flagged) << result->slo.ToString();
  // The identity itself still balances — the loss is visible as stuck
  // in-flight data, not as counter drift.
  EXPECT_TRUE(result->audit.Balanced()) << result->audit.ToString();
}

TEST(SoakHarnessTest, TightenedThresholdTripsAnSloViolation) {
  SoakOptions options = SmallOptions();
  // Aggregators buffer between rolls, so any healthy run trips a zero
  // ceiling on the fleet's buffered entries.
  options.slo.max_agg_buffered_entries = 0;
  auto result = SoakHarness(options).Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_FALSE(result->passed);
  bool flagged = false;
  for (const SloViolation& v : result->slo.violations) {
    if (v.name == "peak_agg_buffered_entries") {
      flagged = true;
      EXPECT_GT(v.observed, v.bound);
    }
  }
  EXPECT_TRUE(flagged) << result->slo.ToString();
  // Everything else about the run was healthy.
  EXPECT_TRUE(result->slo.audit_quiescent) << result->slo.audit_detail;
}

TEST(SoakHarnessTest, RejectsDegenerateOptions) {
  SoakOptions no_hours = SmallOptions();
  no_hours.hours = 0;
  EXPECT_TRUE(SoakHarness(no_hours).Run().status().IsInvalidArgument());

  SoakOptions no_dcs = SmallOptions();
  no_dcs.datacenters.clear();
  no_dcs.broker_datacenters.clear();
  EXPECT_TRUE(SoakHarness(no_dcs).Run().status().IsInvalidArgument());
}

}  // namespace
}  // namespace unilog::soak
