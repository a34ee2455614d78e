// E21/E25: broker tier throughput. Two tiers under the same per-node
// service rate R (token bucket, 1 s burst) and the same saturating
// producer load:
//
//   single-aggregator  the one-chain baseline, pinned at R
//   broker-batched     4 partitions, frame-and-compress-once produce: the
//                      bucket charges compressed bytes on the wire, so the
//                      4 nodes accept ~4R x the compression ratio of payload
//
// The bench measures intake MB/s (uncompressed payload accepted) over the
// load window, allocations per produced entry (alloc_hooks), wire-bytes
// ratio and batch fan-in, drains both tiers through the log mover, and
// checks the delivery-audit identity at quiescence. Exits nonzero when an
// audit breaks, the broker fails to drain, or the batched tier misses its
// 6x intake floor over the single chain.

#include <cstdio>
#include <string>

#include "alloc_hooks.h"
#include "bench_common.h"
#include "broker/broker.h"
#include "obs/delivery_audit.h"
#include "obs/metrics.h"
#include "scribe/cluster.h"
#include "sim/simulator.h"

namespace unilog {
namespace {

using bench::kBenchDay;

constexpr uint64_t kServiceBytesPerSec = 64 * 1024;  // R for every tier
constexpr TimeMs kWindow = 120 * kMillisPerSecond;
constexpr int kPayloadBytes = 500;
constexpr int kEntriesPerTick = 220;  // every 100 ms -> ~1.1 MB/s offered

enum class Tier { kAggregator, kBrokerBatched };

struct TierResult {
  uint64_t intake_bytes = 0;  // uncompressed payload accepted in-window
  double intake_mb_per_sec = 0;
  double consume_mb_per_sec = 0;
  double p99_e2e_ms = 0;
  double allocs_per_entry = 0;
  double wire_bytes_ratio = 0;       // wire bytes / payload bytes acked
  double batch_entries_per_produce = 0;
  scribe::ClusterStats stats;
  obs::DeliverySnapshot audit;
  bool audit_ok = false;
};

scribe::ScribeOptions TierScribeOptions(Tier tier) {
  scribe::ScribeOptions sopts;
  sopts.roll_interval_ms = 30 * kMillisPerSecond;
  sopts.daemon_flush_interval_ms = 500;
  // Saturation keeps every flush near the rate limit; quick retries keep
  // the measurement capacity-bound instead of backoff-bound.
  sopts.daemon_retry_backoff_ms = 100;
  sopts.daemon_retry_backoff_max_ms = 500;
  // The batched tier ships compressed blobs, so its per-flush payload cap
  // can far exceed the 1 s token burst of uncompressed admission.
  sopts.daemon_max_batch_bytes =
      tier == Tier::kBrokerBatched ? 256 * 1024 : 32 * 1024;
  if (tier == Tier::kAggregator) {
    sopts.aggregator_service_bytes_per_sec = kServiceBytesPerSec;
  }
  return sopts;
}

scribe::ClusterTopology TierTopology(Tier tier) {
  scribe::ClusterTopology topo;
  topo.datacenters = {"dc1"};
  topo.daemons_per_dc = 8;
  if (tier == Tier::kAggregator) {
    topo.aggregators_per_dc = 1;
  } else {
    topo.brokers_per_dc = 4;
    topo.broker_options.num_partitions = 4;
    topo.broker_options.replication_factor = 1;
    topo.broker_options.acks = broker::kAcksLeader;
    topo.broker_options.node_service_bytes_per_sec = kServiceBytesPerSec;
  }
  return topo;
}

TierResult RunTier(const char* name, Tier tier, uint64_t seed) {
  Simulator sim(kBenchDay);
  scribe::LogMoverOptions mopts;
  mopts.run_interval_ms = kMillisPerMinute;
  mopts.grace_ms = kMillisPerMinute;

  scribe::ScribeCluster cluster(&sim, TierTopology(tier),
                                TierScribeOptions(tier), mopts, seed);
  if (!cluster.Start().ok()) std::abort();

  // Four categories spread the (host, category) partition hash over all
  // partitions and broker nodes.
  static const char* kCategories[] = {"clicks", "search", "timeline", "ads"};
  int seq = 0;
  for (TimeMs t = 0; t < kWindow; t += 100) {
    sim.At(kBenchDay + t, [&cluster, &seq]() {
      for (int i = 0; i < kEntriesPerTick; ++i, ++seq) {
        cluster.Log(0, scribe::LogEntry{kCategories[seq % 4],
                                        "e" + std::to_string(seq) +
                                            std::string(kPayloadBytes, 'b')});
      }
    });
  }

  const bool brokered = tier == Tier::kBrokerBatched;
  TierResult result;
  // Snapshot intake at the end of the load window: every tier keeps
  // draining its daemon queues afterwards, which is recovery, not
  // throughput.
  sim.At(kBenchDay + kWindow, [&]() {
    result.intake_bytes =
        brokered ? cluster.fleet(0)->TotalStats().bytes_produced
                 : cluster.aggregator(0, 0)->stats().bytes_received;
  });

  // Drain: past the hour close + grace so the mover slides the hour (and,
  // on the broker path, the consumer group commits every partition).
  bench::AllocScope allocs;
  sim.RunUntil(kBenchDay + kMillisPerHour + 5 * kMillisPerMinute);

  result.stats = cluster.TotalStats();
  obs::DeliveryAudit audit(&cluster);
  result.audit = audit.Snapshot();
  result.audit_ok = audit.Check().ok();
  result.intake_mb_per_sec = static_cast<double>(result.intake_bytes) / 1e6 /
                             (static_cast<double>(kWindow) / 1e3);
  if (brokered) {
    const broker::BrokerFleetStats fs = cluster.fleet(0)->TotalStats();
    result.consume_mb_per_sec = static_cast<double>(fs.bytes_consumed) / 1e6 /
                                (static_cast<double>(kWindow) / 1e3);
    result.p99_e2e_ms = obs::HistogramQuantile(
        *cluster.metrics()->GetHistogram("broker.e2e_latency_ms"), 0.99);
    if (fs.bytes_produced > 0) {
      result.wire_bytes_ratio = static_cast<double>(fs.wire_bytes_produced) /
                                static_cast<double>(fs.bytes_produced);
    }
    if (fs.produce_calls > 0) {
      result.batch_entries_per_produce =
          static_cast<double>(fs.entries_produced) /
          static_cast<double>(fs.produce_calls);
    }
    if (fs.entries_produced > 0) {
      result.allocs_per_entry = static_cast<double>(allocs.Delta()) /
                                static_cast<double>(fs.entries_produced);
    }
  }

  std::printf(
      "%-18s intake=%7.3f MB/s  wire/payload=%5.3f  entries/produce=%6.1f  "
      "allocs/entry=%6.1f  audit=%s\n",
      name, result.intake_mb_per_sec, result.wire_bytes_ratio,
      result.batch_entries_per_produce, result.allocs_per_entry,
      result.audit_ok ? "balanced" : "IMBALANCED");
  return result;
}

}  // namespace
}  // namespace unilog

int main(int argc, char** argv) {
  using namespace unilog;
  uint64_t seed = bench::ParseSeedFlag(&argc, argv, 77);
  std::printf(
      "=== E25: compressed record batches through the broker tier ===\n"
      "per-node service rate R = %llu KB/s for every tier; offered load "
      "~%d KB/s for %llu s; seed %llu (pass --seed=N)\n\n",
      static_cast<unsigned long long>(kServiceBytesPerSec / 1024),
      kEntriesPerTick * 10 * (kPayloadBytes + 8) / 1024,
      static_cast<unsigned long long>(kWindow / 1000),
      static_cast<unsigned long long>(seed));

  TierResult baseline = RunTier("single-aggregator", Tier::kAggregator, seed);
  TierResult batched = RunTier("broker-batched", Tier::kBrokerBatched, seed);

  double speedup = baseline.intake_mb_per_sec > 0
                       ? batched.intake_mb_per_sec / baseline.intake_mb_per_sec
                       : 0;
  std::printf(
      "\nbroker-batched consume throughput (drain phase, normalized to the "
      "load window): %.3f MB/s\n",
      batched.consume_mb_per_sec);
  std::printf("broker-batched produce->consume p99 latency: %.0f ms "
              "(hourly move barrier dominates)\n",
              batched.p99_e2e_ms);
  std::printf("intake speedup (4 batched partitions vs single chain): %.2fx "
              "(target >=6x)\n",
              speedup);

  bool ok = baseline.audit_ok && batched.audit_ok && speedup >= 6.0 &&
            batched.stats.messages_in_warehouse > 0 &&
            batched.audit.in_flight_broker == 0;
  std::printf(
      "contract (audits balanced, broker drained, >=6x intake over the "
      "single chain): %s\n",
      ok ? "MET" : "MISSED");
  if (!ok) {
    std::fprintf(stderr, "CONTRACT VIOLATED — reproduce with --seed=%llu\n",
                 static_cast<unsigned long long>(seed));
  }

  Json section = Json::Object();
  section.Set("service_bytes_per_sec",
              Json::Number(static_cast<double>(kServiceBytesPerSec)));
  section.Set("window_seconds",
              Json::Number(static_cast<double>(kWindow) / 1e3));
  section.Set("baseline_intake_mb_per_sec",
              Json::Number(baseline.intake_mb_per_sec));
  section.Set("broker_batched_intake_mb_per_sec",
              Json::Number(batched.intake_mb_per_sec));
  section.Set("broker_consume_mb_per_sec",
              Json::Number(batched.consume_mb_per_sec));
  section.Set("broker_p99_e2e_ms", Json::Number(batched.p99_e2e_ms));
  section.Set("batched_speedup", Json::Number(speedup));
  section.Set("wire_bytes_ratio_batched",
              Json::Number(batched.wire_bytes_ratio));
  section.Set("batch_entries_per_produce",
              Json::Number(batched.batch_entries_per_produce));
  section.Set("allocs_per_entry_batched",
              Json::Number(batched.allocs_per_entry));
  section.Set("baseline_audit_balanced", Json::Bool(baseline.audit_ok));
  section.Set("broker_audit_balanced", Json::Bool(batched.audit_ok));
  section.Set("contract_met", Json::Bool(ok));
  Status js = bench::MergeBenchJsonSection("BENCH_broker.json",
                                           "broker_throughput", section);
  if (!js.ok()) {
    std::fprintf(stderr, "BENCH_broker.json write failed: %s\n",
                 js.ToString().c_str());
  }
  return ok ? 0 : 1;
}
