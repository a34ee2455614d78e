#ifndef UNILOG_BROKER_PARTITION_LOG_H_
#define UNILOG_BROKER_PARTITION_LOG_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"

namespace unilog::broker {

/// One decoded record — the unit daemons log and the warehouse lands.
/// Inside the broker tier records travel only as members of a Batch; this
/// struct is what DecodeBatch() materializes for replays and tests (the
/// log mover lands FrameViews without copying them). `appended_at` (the
/// leader-append sim time) buckets the record into its warehouse hour;
/// `logged_at` (the daemon's Log() time) feeds the end-to-end latency
/// histogram. The (producer, seq)
/// pair is the idempotence key brokers use to dedup crash-retry resends.
struct Record {
  uint64_t offset = 0;
  std::string producer;
  uint64_t seq = 0;
  TimeMs appended_at = 0;
  TimeMs logged_at = 0;
  std::string payload;
};

/// The storage, replication, and fetch unit of the broker tier: one
/// producer batch, framed and compressed once at the daemon and carried
/// as an opaque blob from there to warehouse landing. A batch covers the
/// dense offset range [base_offset, base_offset + count) and the dense seq
/// range [first_seq, first_seq + count) of one producer.
///
/// Body format (after decompression when `compressed`): one frame per
/// record, each `varint logged_at, varint payload_len, payload bytes`.
/// The body may carry `skip_frames` extra frames ahead of the first
/// included record — a crash-retried produce that partially overlapped
/// already-appended seqs is head-trimmed in metadata only, because the
/// blob is opaque to the broker. Slices taken by ReadFrom() grow
/// skip_frames the same way instead of rewriting the blob.
///
/// Every record of a batch was appended at one leader instant,
/// `appended_at`, so a batch lies wholly before or wholly past an hour
/// boundary. `record_sizes` (uncompressed payload bytes per included
/// record) and `appended_at` let the broker do byte accounting, dedup
/// trims, and hour-boundary reads without ever decompressing. The body is
/// shared: replication and fetch copy batch metadata, never payload bytes.
struct Batch {
  uint64_t base_offset = 0;
  /// Included records; offsets [base_offset, base_offset + count).
  uint32_t count = 0;
  std::string producer;
  /// Seq of the record at base_offset.
  uint64_t first_seq = 0;
  /// The leader-append sim time of every record in the batch.
  TimeMs appended_at = 0;
  /// Leading body frames to discard at decode (dedup head trim / slice).
  uint32_t skip_frames = 0;
  /// Framed body (compressed as one Lz block iff `compressed`). Holds
  /// skip_frames + count frames.
  std::shared_ptr<const std::string> body;
  bool compressed = false;
  /// Uncompressed payload bytes of each included record, in offset order.
  std::vector<uint32_t> record_sizes;
  /// Sum of record_sizes, cached by builders and slicers.
  uint64_t payload_bytes = 0;

  uint64_t end_offset() const { return base_offset + count; }
  uint64_t last_seq() const { return first_seq + count - 1; }
  /// Bytes the blob occupies in the log / on the wire.
  uint64_t stored_bytes() const { return body ? body->size() : 0; }
};

/// Appends one record frame to an (uncompressed) batch body.
void AppendBatchFrame(std::string* body, TimeMs logged_at,
                      std::string_view payload);

/// One included record of a batch body, as a view.
struct FrameView {
  TimeMs logged_at = 0;
  std::string_view payload;
};

/// The one batch frame walker. Appends a FrameView per included record to
/// *frames, in offset order: it skips the skip_frames head frames, stops
/// after `count` frames and checks every included frame against
/// record_sizes. A compressed body is decompressed whole into *body and
/// the views point into *body; an uncompressed body is not copied, and
/// the views point into the batch's own body, which must outlive them.
/// Corruption on malformed bodies, with *frames left as it was.
Status DecodeBatchFrames(const Batch& batch, std::string* body,
                         std::vector<FrameView>* frames);

/// DecodeBatchFrames, materialized: replaces *out with the included
/// records, assigning offsets, seqs and the append time from the batch
/// metadata.
Status DecodeBatch(const Batch& batch, std::vector<Record>* out);

/// An offset-addressed in-memory commit log of batch entries for one
/// (category, partition) replica — the Kafka-style storage unit under the
/// Scribe tier. Leaders AppendBatch() densely; followers mirror whole
/// batches with AppendMirror() and may carry gaps (offsets lost with a
/// dead leader), which AdvanceTo() records explicitly so offset arithmetic
/// stays honest after failover.
class PartitionLog {
 public:
  /// Offsets below this have been trimmed (consumed by every group).
  uint64_t begin_offset() const { return begin_; }
  /// One past the highest offset ever observed (next to be assigned).
  uint64_t end_offset() const { return next_offset_; }
  /// Retained records (summed over retained batches).
  size_t entry_count() const { return static_cast<size_t>(record_count_); }
  size_t batch_count() const { return batches_.size(); }
  /// Uncompressed payload bytes retained — the unit the delivery audit,
  /// byte accounting, and in-flight backpressure all use, so batching and
  /// compression never change their meaning.
  uint64_t byte_size() const { return bytes_; }
  /// Blob bytes retained (compressed where batches are compressed).
  uint64_t stored_byte_size() const { return stored_bytes_; }
  bool empty() const { return batches_.empty(); }

  /// Leader path: assigns base_offset = end_offset() and stores the batch.
  /// Returns the stored entry.
  const Batch& AppendBatch(Batch b);

  /// Replication path: stores `b` under its existing base offset. Accepts
  /// only batches starting at or past the local end (mirroring the leader,
  /// gaps included); returns false for ranges already covered locally.
  bool AppendMirror(Batch b);

  /// Raises the end offset without storing records — the explicit gap a
  /// new leader opens when the acked watermark it inherits from zk is
  /// ahead of its own copy of the log (those entries died with the old
  /// leader and are counted as failover loss).
  void AdvanceTo(uint64_t offset);

  /// Drops retained batches whose entire range lies below `offset`
  /// (consumed by all groups). Batch-granular: a batch straddling `offset`
  /// is kept whole — retention never splits a batch. Never lowers
  /// begin_offset().
  void TrimTo(uint64_t offset);

  struct ReadResult {
    /// Whole or head-sliced batches, in offset order. Slices share the
    /// original body; no payload bytes are copied or decompressed.
    std::vector<Batch> batches;
    /// Offset consumption should resume from: one past the last returned
    /// record, or the offset of the first record excluded by `ts_limit`.
    uint64_t next_offset = 0;
    /// Records covered by `batches`.
    uint64_t record_count = 0;
    /// Blob bytes covered by `batches` (what replication/fetch ships).
    uint64_t stored_bytes = 0;
  };

  /// Records with offset in [from, limit_offset) and appended_at <
  /// ts_limit, as batches. The scan stops at the first batch appended at
  /// or past ts_limit — consumption never skips over an hour boundary, so
  /// next_offset always marks a clean resumption point.
  ReadResult ReadFrom(uint64_t from, uint64_t limit_offset,
                      TimeMs ts_limit) const;
  /// ReadFrom into `out`, reusing the capacity of its batch vector.
  void ReadInto(uint64_t from, uint64_t limit_offset, TimeMs ts_limit,
                ReadResult* out) const;

  /// Highest seq per producer over retained records with offset below
  /// `below` — a newly elected leader rebuilds its idempotence tables from
  /// this. Batch-granular arithmetic: seqs are dense within a batch.
  std::map<std::string, uint64_t> ProducerHighWatermarks(uint64_t below) const;

  const std::deque<Batch>& batches() const { return batches_; }

 private:
  /// Appends to `out` a view of `b` starting at offset `from` (>=
  /// b.base_offset) covering `take` records. Shares the body; adjusts
  /// metadata only.
  static void AppendSlice(const Batch& b, uint64_t from, uint32_t take,
                          std::vector<Batch>* out);

  std::deque<Batch> batches_;  // ascending base offsets; may contain gaps
  uint64_t next_offset_ = 0;
  uint64_t begin_ = 0;
  uint64_t bytes_ = 0;
  uint64_t stored_bytes_ = 0;
  uint64_t record_count_ = 0;
};

}  // namespace unilog::broker

#endif  // UNILOG_BROKER_PARTITION_LOG_H_
