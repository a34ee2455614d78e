#ifndef UNILOG_SCRIBE_DAEMON_H_
#define UNILOG_SCRIBE_DAEMON_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "broker/fleet.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "scribe/aggregator.h"
#include "scribe/message.h"
#include "sim/simulator.h"
#include "zk/zookeeper.h"

namespace unilog::scribe {

/// Per-daemon delivery metrics, materialized from the metrics registry.
struct DaemonStats {
  uint64_t entries_logged = 0;
  uint64_t entries_sent = 0;
  uint64_t entries_dropped = 0;  // buffer-limit overflow
  uint64_t send_failures = 0;
  uint64_t rediscoveries = 0;
  uint64_t produce_throttled = 0;  // broker backpressure pushbacks
};

/// A Scribe daemon: runs on every production host, queues local log
/// entries, and ships them to an aggregator in the same datacenter. The
/// aggregator is discovered through ZooKeeper's ephemeral registry; on a
/// failed send the daemon buffers locally (bounded), re-consults
/// ZooKeeper, and retries — the §2 fault-tolerance story.
///
/// All delivery counters live in an obs::MetricsRegistry under
/// `daemon.*{dc=...,host=...}`; when no registry is supplied the daemon
/// owns a private one so standalone construction keeps working.
class ScribeDaemon {
 public:
  /// `resolve` maps an aggregator registry entry (znode name) to the
  /// Aggregator object — the simulation's stand-in for opening a network
  /// connection to the advertised host:port.
  using Resolver = std::function<Aggregator*(const std::string& name)>;

  ScribeDaemon(Simulator* sim, zk::ZooKeeper* zk, std::string datacenter,
               std::string host, Resolver resolve, Rng rng,
               ScribeOptions options,
               obs::MetricsRegistry* metrics = nullptr);

  ScribeDaemon(const ScribeDaemon&) = delete;
  ScribeDaemon& operator=(const ScribeDaemon&) = delete;

  /// Switches the daemon into broker-producer mode: Flush() partitions the
  /// queue by category and produces to partition leaders with per-daemon
  /// sequence numbers (idempotent delivery) instead of shipping whole
  /// batches to an aggregator. Call before Start().
  void SetBrokerFleet(broker::BrokerFleet* fleet) { fleet_ = fleet; }

  /// Starts the periodic flush loop.
  void Start();

  /// Queues one log entry (the application-facing API).
  void Log(LogEntry entry);
  void Log(const std::string& category, std::string message);

  /// Flushes queued entries to the current destination now; on failure,
  /// re-discovers and leaves entries queued. Normally timer-driven. In
  /// broker mode it produces every ripe category (see daemon_linger_ms);
  /// a tick with none ripe costs O(categories) and allocates nothing.
  void Flush();

  /// Entries queued but not yet acknowledged downstream.
  size_t QueuedEntries() const { return queue_.size(); }

  DaemonStats stats() const;
  const std::string& host() const { return host_; }

 private:
  /// Per-category state: the (host, category) stream's seq counter, its
  /// broker route, what it has queued, and the queue positions a broker
  /// flush is producing.
  struct Category {
    // Each (host, category) stream gets dense seqs, which is what lets a
    // produce batch carry its idempotence metadata as just (first_seq,
    // count). All of a category's entries route to one partition, so
    // density survives partitioning; drop-oldest and ack-removal both
    // erase per-category prefixes, preserving it in the queue too.
    uint64_t next_seq = 0;
    int partition = -1;  // PartitionFor(host, category); -1 until needed
    // Cached partition leader; invalidated on rejection/death.
    broker::BrokerNode* leader = nullptr;
    // Entries and payload bytes of the category in the queue, and the
    // logged_at of its oldest one (meaningful while queued > 0): what a
    // broker flush decides ripeness from without walking the queue.
    size_t queued = 0;
    uint64_t queued_bytes = 0;
    TimeMs oldest = 0;
    bool ripe = false;  // this flush produces the category
    // This flush's queue indices of the category, in queue order; the
    // vector keeps its capacity from flush to flush.
    std::vector<size_t> pending;
  };

  /// A queued entry plus the per-daemon sequence number assigned at Log()
  /// time. Sequence numbers travel with every send so downstream dedup can
  /// make crash-retry idempotent.
  struct Queued {
    LogEntry entry;
    uint64_t seq = 0;
    TimeMs logged_at = 0;
    Category* category = nullptr;  // the entry's categories_ node
    bool acked = false;            // set by a broker flush
  };

  /// Picks a live aggregator from ZooKeeper; nullptr when none registered.
  Aggregator* Discover();
  bool FlushToAggregator();
  bool FlushToBroker();
  /// Removes the queue's front entry, keeping the byte and category
  /// accounting (the drop-oldest and aggregator paths).
  void PopFront();
  /// Marks the categories this broker flush produces: those whose oldest
  /// entry has lingered daemon_linger_ms, whose queued bytes reached
  /// daemon_max_batch_bytes, or all of them when the hour closes within
  /// the linger window. Returns how many are ripe.
  size_t MarkRipe(TimeMs now);
  /// Batched produce for one category's pending entries: frames them
  /// (up to daemon_max_batch_bytes) into the reused frame buffer,
  /// compresses the frames ONCE with the pooled Lz state straight into the
  /// request body — which the leader keeps as the stored batch's shared
  /// blob — and ships it via ProduceBatch. The compression done here is
  /// the only compression the payload sees until warehouse landing.
  /// Marks the acknowledged entries and returns how many there are.
  Result<size_t> ProduceCategoryBatch(const std::string& name, Category* cat);
  broker::BrokerNode* DiscoverLeader(const std::string& category,
                                     int partition);
  /// Capped exponential backoff with deterministic (Rng-seeded) jitter:
  /// doubles per consecutive failed flush up to daemon_retry_backoff_max_ms,
  /// jittered into [1/2, 1]× so an outage does not synchronize the whole
  /// daemon herd onto one zk rediscovery tick.
  void EnterBackoff();

  Simulator* sim_;
  zk::ZooKeeper* zk_;
  std::string datacenter_;
  std::string host_;
  Resolver resolve_;
  Rng rng_;
  ScribeOptions options_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* entries_logged_;
  obs::Counter* entries_sent_;
  obs::Counter* entries_dropped_;
  obs::Counter* send_failures_;
  obs::Counter* rediscoveries_;
  obs::Counter* produce_throttled_;
  obs::Gauge* queue_depth_;
  obs::Histogram* batch_entries_;

  bool started_ = false;
  Aggregator* current_ = nullptr;
  broker::BrokerFleet* fleet_ = nullptr;
  // Send batch assembled from queue_ each flush; member so its capacity is
  // reused across the once-per-second flush timer.
  std::vector<LogEntry> batch_;
  // The framed (uncompressed) body of a broker produce, reused.
  std::string frame_;
  std::deque<Queued> queue_;
  uint64_t queue_bytes_ = 0;
  // Set when PopFront removed some category's oldest entry; the next
  // broker flush re-reads every category's oldest from the queue.
  bool oldest_stale_ = false;
  // Nodes are stable, so queued entries point at theirs; a broker flush
  // walks it in name order, the order it produces categories in.
  std::map<std::string, Category, std::less<>> categories_;
  TimeMs backoff_until_ = 0;
  int fail_streak_ = 0;
};

}  // namespace unilog::scribe

#endif  // UNILOG_SCRIBE_DAEMON_H_
