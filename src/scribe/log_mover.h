#ifndef UNILOG_SCRIBE_LOG_MOVER_H_
#define UNILOG_SCRIBE_LOG_MOVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "broker/fleet.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "exec/executor.h"
#include "hdfs/mini_hdfs.h"
#include "obs/metrics.h"
#include "scribe/aggregator.h"
#include "sim/simulator.h"

namespace unilog::scribe {

/// Tuning knobs for the log mover pipeline.
struct LogMoverOptions {
  /// How often the mover wakes up and tries to advance.
  TimeMs run_interval_ms = 5 * kMillisPerMinute;
  /// How long after an hour closes before it becomes eligible to move.
  TimeMs grace_ms = 2 * kMillisPerMinute;
  /// Merge staging files into warehouse files of roughly this size
  /// ("merging many small files into a few big ones", §2). Measured on the
  /// uncompressed framed body.
  uint64_t target_file_bytes = 8 * 1024 * 1024;
  /// Categories whose moved hours get an Elephant Twin event-name index
  /// built alongside the data ("building any necessary indexes", §2).
  /// Entries must contain compact-Thrift client events.
  std::set<std::string> index_categories;
  /// Categories whose warehoused hours are written as columnar RCFile v3
  /// parts (zone maps + dictionaries) instead of framed-compressed blobs,
  /// enabling the scan fast path. Entries must contain compact-Thrift
  /// client events; a message that fails to parse is preserved in a
  /// framed-compressed sidecar part (readers sniff per file), so delivery
  /// accounting is unchanged. Columnar parts carry their own per-column
  /// compression; the etwin index is skipped for these categories (zone
  /// maps + dictionaries subsume it).
  std::set<std::string> columnar_categories;
  /// The engine the mover's CPU-bound stages run on — per-batch decode,
  /// per-staged-file decompress+unframe, per-part frame+compress and, for
  /// columnar categories, chunked parse and per-row-group encode, as the
  /// exec stages mover.decode_batches, mover.unstage, mover.build_parts,
  /// mover.parse_events and mover.encode_groups. All HDFS I/O and all obs
  /// counters stay on the calling thread, merges and part writes are
  /// committed in stable input order, and part boundaries are planned
  /// from message sizes (framed) or row groups (columnar) alone, so the
  /// staged warehouse bytes are byte-identical at any thread count.
  /// Borrowed; must outlive the mover. nullptr runs the stages inline
  /// (exec::OrInline).
  exec::Executor* executor = nullptr;
  /// Consumer group under which the mover commits its broker offsets in zk.
  /// Restarting the mover resumes exactly where the group left off, so the
  /// warehouse never double-ingests a partition range.
  std::string consumer_group = "log-mover";
};

/// A datacenter as the log mover sees it: its staging cluster plus the
/// aggregators whose flush watermarks gate the hour barrier.
struct DatacenterHandle {
  std::string name;
  hdfs::MiniHdfs* staging = nullptr;
  const std::vector<Aggregator*>* aggregators = nullptr;
  /// When the datacenter runs a broker tier instead of (or alongside) the
  /// aggregator chain, the mover consumes each topic partition from its
  /// leader as consumer group `consumer_group`, so the warehouse path is
  /// unchanged downstream of the merge.
  broker::BrokerFleet* fleet = nullptr;
};

/// Mover metrics, materialized from the metrics registry.
struct LogMoverStats {
  uint64_t hours_moved = 0;
  uint64_t categories_moved = 0;
  uint64_t staging_files_read = 0;
  uint64_t warehouse_files_written = 0;
  uint64_t messages_moved = 0;
  uint64_t corrupt_files_skipped = 0;
  /// Runs where a closed hour was blocked by an unflushed aggregator.
  uint64_t barrier_stalls = 0;
  /// Runs where MoveHour itself failed (e.g. warehouse outage) and the
  /// hour will be retried. Previously mis-counted as barrier_stalls.
  uint64_t move_retries = 0;
  /// Staged files that arrived after their hour was already slid into the
  /// warehouse; they are dropped (and their messages counted) rather than
  /// leaked in staging forever.
  uint64_t late_files_dropped = 0;
  uint64_t late_entries_dropped = 0;
  /// Warehouse parts written in the columnar (RCFile v3) layout.
  uint64_t columnar_files_written = 0;
  /// Messages in a columnar category that failed the client-event parse
  /// and were preserved in a framed-compressed sidecar part instead.
  uint64_t columnar_parse_fallbacks = 0;
  /// Compressed broker batches decoded at warehouse landing — the single
  /// decompression point of the batched delivery path (the decompress-
  /// count probe in tests checks Lz call counts against this).
  uint64_t broker_batches_decoded = 0;
};

/// The log mover pipeline (§2): once every datacenter has transferred an
/// hour's logs for a category, it merges the many small staging files into
/// a few big ones, sanity-checks them (decompress + frame count), and
/// atomically slides the hour into the main warehouse at
/// /logs/<category>/YYYY/MM/DD/HH/. Hours move strictly in order; a stalled
/// hour (barrier not met, HDFS outage) is retried on the next run.
///
/// Late data: a staged file for an hour that has already been moved can no
/// longer be merged (the hour's warehouse directory is immutable once
/// slid); it is deleted from staging and accounted in the
/// `late_entries_dropped` loss channel so the delivery audit still
/// balances.
class LogMover {
 public:
  LogMover(Simulator* sim, std::vector<DatacenterHandle> datacenters,
           hdfs::MiniHdfs* warehouse, LogMoverOptions options,
           obs::MetricsRegistry* metrics = nullptr);

  LogMover(const LogMover&) = delete;
  LogMover& operator=(const LogMover&) = delete;

  /// Starts the periodic run loop; hours earlier than `start_hour` are
  /// assumed already handled.
  void Start(TimeMs start_hour);

  /// One mover iteration: moves every eligible closed hour, then sweeps
  /// staging for late files of already-moved hours. Public for tests and
  /// for deterministic end-of-run draining.
  void RunOnce();

  /// First hour not yet moved.
  TimeMs next_hour() const { return next_hour_; }

  LogMoverStats stats() const;

 private:
  /// True when hour `hour` is closed and past grace.
  bool HourClosed(TimeMs hour) const;

  /// True when no live aggregator anywhere still buffers data for `hour`.
  bool AggregatorsFlushed(TimeMs hour) const;

  /// Moves one hour across all categories. Returns false if the move must
  /// be retried (e.g. warehouse HDFS outage).
  bool MoveHour(TimeMs hour);

  /// Merges one (category, hour) from all datacenters — staged aggregator
  /// files AND broker partition records, which a mid-migration fleet
  /// produces for the same category at once — into one warehouse commit,
  /// then persists the consumer group's broker offsets. `fleet_topics[i]`
  /// is the topic set of datacenter i's broker fleet (empty when it runs
  /// no brokers). Committing the two tiers separately would lose whichever
  /// source arrived second: the slid hour directory is immutable.
  Status MoveCategoryHour(
      const std::string& category, TimeMs hour,
      const std::vector<std::set<std::string>>& fleet_topics);

  /// The shared warehouse-commit tail: writes `merged` as a few big parts
  /// into a tmp dir, atomically slides the hour to
  /// /logs/<category>/YYYY/MM/DD/HH/, and builds any configured index.
  /// Used by both the staging merge and the broker consumer.
  Status CommitMergedHour(const std::string& category, TimeMs hour,
                          const std::vector<std::string_view>& merged);

  /// The columnar half of CommitMergedHour: parses every message in place,
  /// encodes the parsed rows as RCFile v3 row groups on exec, writes the
  /// parts through `write_part` and then the sidecar of messages that
  /// failed the parse. Parts are byte-identical to streaming the parsed
  /// events through one RcFileWriter per part.
  Status WriteColumnarParts(
      const std::vector<std::string_view>& merged,
      const std::function<Status(const std::string&)>& write_part);

  /// Deletes staged files for `category`/`hour` in every datacenter,
  /// counting the dropped files and messages as late-data loss.
  Status DropLateStaging(const std::string& category, TimeMs hour);

  /// Scans staging for hour directories older than next_hour_ (stragglers
  /// that appeared after their hour was moved) and drops them. Best
  /// effort: a staging outage skips the sweep until the next run.
  void SweepLateStaging();

  Simulator* sim_;
  std::vector<DatacenterHandle> datacenters_;
  hdfs::MiniHdfs* warehouse_;
  LogMoverOptions options_;
  // The CPU-bound stages run on this: options_.executor, or inline.
  exec::Executor* exec_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  // A framed hour's part bodies, one slot per part, before and after
  // compression: BuildFramedParts fills them on exec, and they are kept
  // across hours for their capacity.
  std::vector<std::string> framed_parts_;
  std::vector<std::string> parts_;
  obs::Counter* hours_moved_;
  obs::Counter* categories_moved_;
  obs::Counter* staging_files_read_;
  obs::Counter* warehouse_files_written_;
  obs::Counter* messages_moved_;
  obs::Counter* corrupt_files_skipped_;
  obs::Counter* barrier_stalls_;
  obs::Counter* move_retries_;
  obs::Counter* late_files_dropped_;
  obs::Counter* late_entries_dropped_;
  obs::Counter* columnar_files_written_;
  obs::Counter* columnar_parse_fallbacks_;
  obs::Counter* broker_batches_decoded_;
  obs::Histogram* warehouse_file_bytes_;
  // Log()-to-warehouse-ingest latency for broker-consumed records.
  obs::Histogram* broker_e2e_latency_;
  // Hour-close-to-warehouse-slide latency, one observation per moved
  // hour — the batch path's delivery-latency SLO (the soak harness bounds
  // its p99).
  obs::Histogram* hour_slide_latency_;

  bool started_ = false;
  TimeMs next_hour_ = 0;
};

}  // namespace unilog::scribe

#endif  // UNILOG_SCRIBE_LOG_MOVER_H_
