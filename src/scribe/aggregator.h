#ifndef UNILOG_SCRIBE_AGGREGATOR_H_
#define UNILOG_SCRIBE_AGGREGATOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/compress.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "hdfs/mini_hdfs.h"
#include "obs/metrics.h"
#include "scribe/message.h"
#include "sim/simulator.h"
#include "zk/zookeeper.h"

namespace unilog::scribe {

/// Tuning knobs shared across the Scribe tier.
struct ScribeOptions {
  /// Aggregator: roll buffered data to staging HDFS this often.
  TimeMs roll_interval_ms = 60 * kMillisPerSecond;
  /// Aggregator: roll a category early once its buffer reaches this size.
  uint64_t roll_bytes = 4 * 1024 * 1024;
  /// Aggregator: buffer at most this many bytes across all categories
  /// while staging HDFS is unreachable; beyond it the oldest buffered
  /// messages are dropped (counted). The paper's "local disk" buffer is
  /// finite too — a prolonged outage must not grow memory without bound.
  uint64_t aggregator_buffer_limit_bytes = 256 * 1024 * 1024;
  /// Daemon: flush queued entries to the aggregator this often.
  TimeMs daemon_flush_interval_ms = 1 * kMillisPerSecond;
  /// Daemon: buffer at most this many bytes while no aggregator is
  /// reachable; beyond it the oldest entries are dropped (counted).
  uint64_t daemon_buffer_limit_bytes = 64 * 1024 * 1024;
  /// Daemon: base backoff after a failed send. Doubles per consecutive
  /// failed flush (capped below, deterministically jittered) so an outage
  /// does not become a synchronized zk rediscovery herd.
  TimeMs daemon_retry_backoff_ms = 5 * kMillisPerSecond;
  /// Daemon: ceiling for the exponential retry backoff.
  TimeMs daemon_retry_backoff_max_ms = 60 * kMillisPerSecond;
  /// Daemon: cap on payload bytes shipped per destination per flush;
  /// 0 = whole queue (the historical behavior). In broker mode it is also
  /// Kafka's `batch.size`: a category whose queued payload reaches it is
  /// produced at the next flush without waiting out its linger.
  uint64_t daemon_max_batch_bytes = 0;
  /// Daemon, broker mode: Kafka's `linger.ms`. A flush produces a category
  /// only once its oldest queued entry is this old, its queued bytes reach
  /// daemon_max_batch_bytes, or the hour closes within this window; the
  /// last rule appends every entry in the hour it would be at 0, as long
  /// as the window is at least daemon_flush_interval_ms and so holds a
  /// flush. 0 = produce everything on every flush.
  TimeMs daemon_linger_ms = 10 * kMillisPerSecond;
  /// Aggregator: sustained receive service rate in bytes/sec (token bucket
  /// with one second of burst); 0 = unlimited. Models the single-chain
  /// bound the broker bench compares against.
  uint64_t aggregator_service_bytes_per_sec = 0;
};

/// The ZooKeeper registry path for a datacenter's aggregators.
std::string AggregatorRegistryPath(const std::string& datacenter);

/// Per-aggregator delivery metrics, materialized from the registry.
struct AggregatorStats {
  uint64_t entries_received = 0;
  uint64_t bytes_received = 0;
  uint64_t entries_staged = 0;         // messages written to staging files
  uint64_t files_written = 0;
  uint64_t bytes_written = 0;          // post-compression
  uint64_t hdfs_write_failures = 0;    // writes deferred by HDFS outage
  uint64_t entries_lost_in_crash = 0;  // buffered entries lost on Crash()
  uint64_t entries_dropped_overflow = 0;  // buffer-limit drops (oldest)
};

/// A Scribe aggregator: receives per-category streams from many daemons,
/// merges them, and periodically writes compressed framed files into the
/// datacenter's staging HDFS under /staging/<category>/YYYY/MM/DD/HH/.
/// It registers itself in ZooKeeper with an ephemeral znode; daemons
/// discover it there (§2).
///
/// Fault model: on HDFS outage the roll fails and data stays buffered
/// ("aggregators buffer data on local disk in case of HDFS outages") up to
/// aggregator_buffer_limit_bytes, past which the oldest messages are
/// dropped and counted; on Crash() the ZooKeeper session expires (daemons
/// re-discover) and any not-yet-rolled buffer contents are lost —
/// Scribe's loss window.
class Aggregator {
 public:
  Aggregator(Simulator* sim, zk::ZooKeeper* zk, hdfs::MiniHdfs* staging,
             std::string datacenter, std::string id, ScribeOptions options,
             obs::MetricsRegistry* metrics = nullptr);

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Registers in ZooKeeper and schedules the periodic roll. Idempotent
  /// restart after Crash() re-registers with a fresh session.
  Status Start();

  /// Simulates a crash: ZooKeeper session expires, buffers are dropped.
  void Crash();

  bool alive() const { return alive_; }
  const std::string& id() const { return id_; }
  const std::string& datacenter() const { return datacenter_; }

  /// Synchronous receive from a daemon. Returns Unavailable when crashed
  /// (the daemon treats this as a failed send and re-discovers).
  Status Receive(const std::vector<LogEntry>& entries);

  /// Chaos: skews the clock this aggregator buckets incoming entries
  /// with. A negative skew files current traffic under a past hour — if
  /// that hour has already slid into the warehouse, the straggler file
  /// lands as late data and is dropped (accounted), which is exactly the
  /// failure mode a skewed host clock causes in the hour-partitioned
  /// layout. Zero restores normal bucketing.
  void SetClockSkew(TimeMs skew_ms) { clock_skew_ms_ = skew_ms; }
  TimeMs clock_skew_ms() const { return clock_skew_ms_; }

  /// Rolls all category buffers to staging HDFS now. Called by the timer;
  /// public so tests and the log mover's barrier can force a flush.
  void RollAll();

  /// The earliest hour for which this aggregator still holds unflushed
  /// data, or INT64_MAX when fully flushed. The log mover's all-clear
  /// barrier for hour H requires every live aggregator watermark > H.
  TimeMs UnflushedWatermark() const;

  /// Messages currently buffered (received but not yet staged). The
  /// delivery audit counts these as in-flight.
  uint64_t BufferedEntries() const;
  uint64_t BufferedBytes() const { return buffered_bytes_; }

  AggregatorStats stats() const;

 private:
  struct HourBuffer {
    std::deque<std::string> messages;
    uint64_t bytes = 0;
  };
  // Keyed by (category, hour-start).
  using BufferKey = std::pair<std::string, TimeMs>;

  /// Attempts to write one buffer to staging; returns false on HDFS outage.
  bool RollBuffer(const BufferKey& key, HourBuffer* buffer);
  /// Drops the oldest buffered messages until under the buffer limit.
  void EnforceBufferLimit();

  Simulator* sim_;
  zk::ZooKeeper* zk_;
  hdfs::MiniHdfs* staging_;
  std::string datacenter_;
  std::string id_;
  ScribeOptions options_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* entries_received_;
  obs::Counter* bytes_received_;
  obs::Counter* entries_staged_;
  obs::Counter* files_written_;
  obs::Counter* bytes_written_;
  obs::Counter* hdfs_write_failures_;
  obs::Counter* entries_lost_in_crash_;
  obs::Counter* entries_dropped_overflow_;
  obs::Counter* receive_throttled_;
  obs::Gauge* buffered_entries_gauge_;
  obs::Histogram* staging_file_bytes_;

  // Each roll frames into roll_framed_ and compresses into roll_staged_,
  // cleared first and kept across rolls for their capacity; the
  // compressor keeps its 16 KiB table (byte-identical output to a fresh
  // compressor's).
  std::string roll_framed_;
  std::string roll_staged_;
  Lz::FastCompressor compressor_;

  bool alive_ = false;
  TimeMs clock_skew_ms_ = 0;
  uint64_t incarnation_ = 0;  // invalidates stale timers after crash
  zk::SessionId session_ = 0;
  std::map<BufferKey, HourBuffer> buffers_;
  uint64_t buffered_bytes_ = 0;  // sum of HourBuffer::bytes
  uint64_t file_seq_ = 0;
  TokenBucket receive_tokens_;
};

}  // namespace unilog::scribe

#endif  // UNILOG_SCRIBE_AGGREGATOR_H_
