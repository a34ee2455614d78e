// Tests for the partitioned replicated commit log under Scribe: the
// batch-granular PartitionLog storage unit, BrokerNode produce/dedup/
// backpressure (single records ride as count-1 batches), zk leader
// election, and the chaos suite — leader kill mid-produce, session expiry
// during election, acks=all with a replica down — each asserting the
// delivery audit stays balanced at quiescence and consumer-group offsets
// never move backwards. The batched path's invariant — payload bytes are
// compressed once at the daemon and decompressed once at warehouse
// landing — is checked with the Lz call-count probes. The daemon-side
// linger tests check which categories a flush produces and that every
// landed hour holds the same entries as at linger 0.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broker/broker.h"
#include "broker/fleet.h"
#include "broker/partition_log.h"
#include "common/coding.h"
#include "common/compress.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "hdfs/mini_hdfs.h"
#include "obs/delivery_audit.h"
#include "partition_log_reference.h"
#include "scribe/cluster.h"
#include "scribe/daemon.h"
#include "scribe/log_mover.h"
#include "scribe/message.h"
#include "sim/simulator.h"
#include "zk/zookeeper.h"

namespace unilog::broker {
namespace {

constexpr TimeMs kT0 = 1345507200000;  // 2012-08-21 00:00 UTC
constexpr TimeMs kFarFuture = kT0 + 365 * 24 * kMillisPerHour;

// Decodes every batch of a read result into one flat record vector.
std::vector<Record> Flatten(const PartitionLog::ReadResult& read) {
  std::vector<Record> records;
  for (const Batch& b : read.batches) {
    std::vector<Record> decoded;
    Status st = DecodeBatch(b, &decoded);
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (auto& r : decoded) records.push_back(std::move(r));
  }
  return records;
}

// Frames `payloads` the way a daemon does and hand-builds a batch around
// the (optionally compressed) body, every record logged and appended at
// `appended_at`.
Batch MakeBatch(std::string producer, uint64_t first_seq,
                const std::vector<std::string>& payloads, TimeMs appended_at,
                bool compressed = true) {
  Batch b;
  b.count = static_cast<uint32_t>(payloads.size());
  b.producer = std::move(producer);
  b.first_seq = first_seq;
  std::string body;
  for (size_t i = 0; i < payloads.size(); ++i) {
    AppendBatchFrame(&body, appended_at, payloads[i]);
    b.record_sizes.push_back(static_cast<uint32_t>(payloads[i].size()));
    b.payload_bytes += payloads[i].size();
  }
  b.appended_at = appended_at;
  b.compressed = compressed;
  b.body = std::make_shared<const std::string>(
      compressed ? Lz::Compress(body) : std::move(body));
  return b;
}

// Frames a produce request the way ScribeDaemon does: compressed once,
// or left uncompressed for plain record streams.
ProduceBatchRequest BatchRequest(uint64_t first_seq,
                                 const std::vector<std::string>& payloads,
                                 TimeMs logged_at, bool compressed = true) {
  ProduceBatchRequest req;
  req.first_seq = first_seq;
  req.count = static_cast<uint32_t>(payloads.size());
  std::string body;
  for (const std::string& p : payloads) {
    AppendBatchFrame(&body, logged_at, p);
    req.record_sizes.push_back(static_cast<uint32_t>(p.size()));
  }
  req.body = compressed ? Lz::Compress(body) : std::move(body);
  req.compressed = compressed;
  return req;
}

// Frames + compresses a produce batch exactly as ScribeDaemon does.
Status ProduceBatchOf(BrokerNode* leader, const std::string& category,
                      int partition, const std::string& producer,
                      uint64_t first_seq,
                      const std::vector<std::string>& payloads,
                      TimeMs logged_at, ProduceAck* ack) {
  return leader->ProduceBatch(category, partition, producer,
                              BatchRequest(first_seq, payloads, logged_at),
                              ack);
}

// ---------------------------------------------------------------------------
// PartitionLog

TEST(PartitionLogTest, AppendAssignsDenseOffsets) {
  PartitionLog log;
  EXPECT_EQ(log.AppendBatch(MakeBatch("h1", 1, {"a"}, kT0)).base_offset, 0u);
  EXPECT_EQ(log.AppendBatch(MakeBatch("h1", 2, {"bb"}, kT0)).base_offset, 1u);
  EXPECT_EQ(log.AppendBatch(MakeBatch("h2", 1, {"ccc"}, kT0)).base_offset,
            2u);
  EXPECT_EQ(log.end_offset(), 3u);
  EXPECT_EQ(log.begin_offset(), 0u);
  EXPECT_EQ(log.entry_count(), 3u);
  EXPECT_EQ(log.byte_size(), 6u);
  EXPECT_EQ(log.batch_count(), 3u);
}

TEST(PartitionLogTest, AppendBatchCoversDenseRange) {
  PartitionLog log;
  const Batch& b = log.AppendBatch(MakeBatch("h1", 1, {"aa", "bb", "cc"}, kT0));
  EXPECT_EQ(b.base_offset, 0u);
  EXPECT_EQ(b.end_offset(), 3u);
  EXPECT_EQ(b.last_seq(), 3u);
  EXPECT_EQ(log.end_offset(), 3u);
  EXPECT_EQ(log.entry_count(), 3u);
  EXPECT_EQ(log.batch_count(), 1u);
  // byte_size stays in uncompressed payload terms — the audit and
  // backpressure unit; the stored (blob) accounting is separate.
  EXPECT_EQ(log.byte_size(), 6u);
  EXPECT_EQ(log.stored_byte_size(), b.stored_bytes());
  std::vector<Record> records = Flatten(log.ReadFrom(0, 3, kFarFuture));
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].offset, 1u);
  EXPECT_EQ(records[1].seq, 2u);
  EXPECT_EQ(records[1].payload, "bb");
}

TEST(PartitionLogTest, TrimRaisesBeginAndNeverLowers) {
  PartitionLog log;
  for (int i = 0; i < 5; ++i) {
    log.AppendBatch(MakeBatch("h", i + 1, {"xy"}, kT0));
  }
  log.TrimTo(3);
  EXPECT_EQ(log.begin_offset(), 3u);
  EXPECT_EQ(log.entry_count(), 2u);
  EXPECT_EQ(log.byte_size(), 4u);
  log.TrimTo(1);  // no-op: begin never moves backwards
  EXPECT_EQ(log.begin_offset(), 3u);
  auto read = log.ReadFrom(0, log.end_offset(), kFarFuture);
  std::vector<Record> records = Flatten(read);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].offset, 3u);
  EXPECT_EQ(read.next_offset, 5u);
}

TEST(PartitionLogTest, RetentionNeverSplitsABatch) {
  PartitionLog log;
  log.AppendBatch(MakeBatch("h", 1, {"aaaa", "bbbb", "cccc", "dddd"}, kT0));
  log.AppendBatch(MakeBatch("h", 5, {"eeee", "ffff"}, kT0));
  ASSERT_EQ(log.end_offset(), 6u);
  const uint64_t stored_before = log.stored_byte_size();

  // Mid-batch trim: the straddling batch is kept whole — nothing drops,
  // and begin stays below the batch (a blob is never split or rewritten).
  log.TrimTo(2);
  EXPECT_EQ(log.begin_offset(), 0u);
  EXPECT_EQ(log.batch_count(), 2u);
  EXPECT_EQ(log.entry_count(), 6u);
  EXPECT_EQ(log.stored_byte_size(), stored_before);

  // Offset 5 covers the first batch entirely and cuts into the second:
  // only the first drops; begin stops at the retained batch's base.
  log.TrimTo(5);
  EXPECT_EQ(log.begin_offset(), 4u);
  EXPECT_EQ(log.batch_count(), 1u);
  EXPECT_EQ(log.entry_count(), 2u);
  EXPECT_EQ(log.byte_size(), 8u);

  log.TrimTo(6);
  EXPECT_EQ(log.begin_offset(), 6u);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.stored_byte_size(), 0u);
  EXPECT_EQ(log.byte_size(), 0u);
}

TEST(PartitionLogTest, ReadFromStopsAtTimestampLimit) {
  PartitionLog log;
  log.AppendBatch(MakeBatch("h", 1, {"a"}, kT0));
  log.AppendBatch(MakeBatch("h", 2, {"b"}, kT0 + 10));
  log.AppendBatch(MakeBatch("h", 3, {"c"}, kT0 + 20));
  auto read = log.ReadFrom(0, log.end_offset(), kT0 + 20);
  EXPECT_EQ(read.record_count, 2u);
  // next_offset marks the first excluded record so consumption resumes
  // exactly at the hour boundary.
  EXPECT_EQ(read.next_offset, 2u);
}

// A frame whose length varint claims 2^64 - 1 bytes: the bounds check
// must not wrap (there is no size index to catch it first).
TEST(PartitionLogTest, DecodeRejectsFrameLengthThatWouldWrap) {
  for (bool compressed : {false, true}) {
    std::string body;
    AppendBatchFrame(&body, kT0, "ok");
    PutVarint64(&body, static_cast<uint64_t>(kT0));
    PutVarint64(&body, ~uint64_t{0});
    body.append("xyz");
    Batch b;
    b.count = 2;
    b.compressed = compressed;
    b.body = std::make_shared<const std::string>(
        compressed ? Lz::Compress(body) : body);
    std::vector<Record> out;
    Status st = DecodeBatch(b, &out);
    EXPECT_TRUE(st.IsCorruption()) << compressed << " " << st.ToString();
    std::string decoded;
    std::vector<FrameView> frames(1);
    EXPECT_TRUE(DecodeBatchFrames(b, &decoded, &frames).IsCorruption());
    EXPECT_EQ(frames.size(), 1u);  // left as it was
  }
}

// Uncompressed bodies are walked in place: the views point into the
// batch's own blob, with no copy.
TEST(PartitionLogTest, FrameViewsOfUncompressedBatchPointIntoItsBody) {
  Batch b = MakeBatch("h", 1, {"first", "second", "third"}, kT0,
                      /*compressed=*/false);
  b.skip_frames = 1;
  b.count = 2;
  b.record_sizes = {6, 5};
  std::string unused;
  std::vector<FrameView> frames;
  Status st = DecodeBatchFrames(b, &unused, &frames);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "second");
  EXPECT_EQ(frames[1].payload, "third");
  EXPECT_EQ(frames[0].logged_at, kT0);
  EXPECT_GE(frames[0].payload.data(), b.body->data());
  EXPECT_LT(frames[1].payload.data(), b.body->data() + b.body->size());
  EXPECT_TRUE(unused.empty());
}

TEST(PartitionLogTest, AdvanceToOpensExplicitGap) {
  PartitionLog log;
  log.AppendBatch(MakeBatch("h", 1, {"a"}, kT0));
  log.AdvanceTo(10);  // entries 1..9 died with the old leader
  EXPECT_EQ(log.end_offset(), 10u);
  EXPECT_EQ(log.AppendBatch(MakeBatch("h", 2, {"b"}, kT0)).base_offset, 10u);
  // Reading across the gap skips to the next retained record.
  auto read = log.ReadFrom(0, log.end_offset(), kFarFuture);
  std::vector<Record> records = Flatten(read);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].offset, 10u);
  EXPECT_EQ(read.next_offset, 11u);
}

TEST(PartitionLogTest, MirrorRejectsCoveredRangesAndTracksWatermarks) {
  PartitionLog log;
  log.AppendBatch(MakeBatch("h", 1, {"a"}, kT0));
  Batch dup = MakeBatch("h", 1, {"zz"}, kT0);
  dup.base_offset = 0;
  EXPECT_FALSE(log.AppendMirror(dup));  // already covered locally
  Batch next = MakeBatch("h", 9, {"b"}, kT0);
  next.base_offset = 5;  // mirrors a leader gap
  EXPECT_TRUE(log.AppendMirror(next));
  EXPECT_EQ(log.end_offset(), 6u);
  EXPECT_EQ(log.ProducerHighWatermarks(6)["h"], 9u);
  // Batch-granular watermark arithmetic: a `below` cutting into a batch
  // counts only the covered prefix of its dense seq run.
  Batch run = MakeBatch("h", 10, {"c", "d", "e"}, kT0);
  run.base_offset = 6;
  EXPECT_TRUE(log.AppendMirror(run));
  EXPECT_EQ(log.ProducerHighWatermarks(8)["h"], 11u);
  EXPECT_EQ(log.ProducerHighWatermarks(9)["h"], 12u);
}

// Renders every field ReadFrom sets, so a mismatch prints both sides.
std::string Describe(const PartitionLog::ReadResult& read) {
  std::string out = "next=" + std::to_string(read.next_offset) +
                    " records=" + std::to_string(read.record_count) +
                    " stored=" + std::to_string(read.stored_bytes);
  for (const Batch& b : read.batches) {
    out += " [base=" + std::to_string(b.base_offset) +
           " count=" + std::to_string(b.count) + " producer=" + b.producer +
           " seq=" + std::to_string(b.first_seq) +
           " skip=" + std::to_string(b.skip_frames) +
           " t=" + std::to_string(b.appended_at) +
           " payload=" + std::to_string(b.payload_bytes) + " sizes=";
    for (uint32_t sz : b.record_sizes) out += std::to_string(sz) + ",";
    out += b.compressed ? " z" : " raw";
    out += " body=" + std::to_string(reinterpret_cast<uintptr_t>(
                          b.body.get())) + "]";
  }
  return out;
}

// ReadFrom checks the tail batch before it binary-searches; a linear scan
// over every retained batch must agree on every field, for every start
// offset, across gaps, mirrors, trims and time limits.
TEST(PartitionLogTest, ReadFromMatchesLinearReference) {
  Rng rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    PartitionLog log;
    TimeMs now = kT0;
    uint64_t seq = 0;
    const int ops = 1 + static_cast<int>(rng.Uniform(24));
    for (int op = 0; op < ops; ++op) {
      now += static_cast<TimeMs>(rng.Uniform(3));
      const uint64_t kind = rng.Uniform(10);
      if (kind == 0) {
        log.AdvanceTo(log.end_offset() + rng.Uniform(4));
        continue;
      }
      if (kind == 1) {
        log.TrimTo(rng.Uniform(log.end_offset() + 2));
        continue;
      }
      const size_t n = 1 + rng.Uniform(4);
      std::vector<std::string> payloads;
      for (size_t i = 0; i < n; ++i) {
        payloads.push_back(std::string(1 + rng.Uniform(5), 'a' + i));
      }
      Batch b = MakeBatch("h" + std::to_string(rng.Uniform(3)), seq + 1,
                          payloads, now, rng.Uniform(2) == 0);
      seq += n;
      if (kind <= 4) {
        // Mirrored: at the end, past a leader gap, or a covered resend.
        const uint64_t end = log.end_offset();
        b.base_offset = rng.Uniform(4) == 0 && end > 0
                            ? rng.Uniform(end)
                            : end + rng.Uniform(3);
        log.AppendMirror(std::move(b));
      } else {
        log.AppendBatch(std::move(b));
      }
    }

    const uint64_t end = log.end_offset();
    for (uint64_t from = 0; from <= end + 2; ++from) {
      const uint64_t limits[] = {end,      end + 5,  from,
                                 from + 1, from + 3, rng.Uniform(end + 3)};
      const TimeMs ts_limits[] = {kFarFuture, kT0, kT0 + 1,
                                  now,        now + 1,
                                  kT0 + static_cast<TimeMs>(
                                            rng.Uniform(now - kT0 + 2))};
      for (uint64_t limit : limits) {
        for (TimeMs ts : ts_limits) {
          const std::string got = Describe(log.ReadFrom(from, limit, ts));
          const std::string want =
              Describe(testing::ReferenceReadFrom(log, from, limit, ts));
          ASSERT_EQ(got, want) << "trial " << trial << " from=" << from
                               << " limit=" << limit << " ts=" << ts - kT0;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// BrokerNode + fleet unit behavior

struct FleetHarness {
  Simulator sim{kT0};
  zk::ZooKeeper zk{&sim};
  obs::MetricsRegistry metrics{&sim};
  std::unique_ptr<BrokerFleet> fleet;

  explicit FleetHarness(int nodes, BrokerOptions options) {
    std::vector<std::string> ids;
    for (int i = 0; i < nodes; ++i) ids.push_back("brk" + std::to_string(i));
    fleet = std::make_unique<BrokerFleet>(&sim, &zk, "dc1", std::move(ids),
                                          options, &metrics);
    EXPECT_TRUE(fleet->Start().ok());
  }

  BrokerNode* Leader(const std::string& category, int partition) {
    return fleet->FindLeader(category, partition);
  }

  // One record as a count-1 uncompressed batch.
  Status ProduceOne(const std::string& category, int partition,
                    const std::string& producer, uint64_t seq,
                    const std::string& payload, ProduceAck* ack = nullptr) {
    ProduceAck local;
    BrokerNode* leader = Leader(category, partition);
    if (leader == nullptr) return Status::Unavailable("leaderless");
    return leader->ProduceBatch(
        category, partition, producer,
        BatchRequest(seq, {payload}, sim.Now(), /*compressed=*/false),
        ack != nullptr ? ack : &local);
  }
};

TEST(BrokerNodeTest, AssignedReplicasAreDistinctAndRotate) {
  std::vector<std::string> ids{"a", "b", "c", "d"};
  auto r1 = BrokerNode::AssignedReplicas(ids, "clicks", 0, 2);
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_NE(r1[0], r1[1]);
  auto r2 = BrokerNode::AssignedReplicas(ids, "clicks", 1, 2);
  // Consecutive partitions rotate one step through the fleet.
  EXPECT_EQ(r2[0], r1[1]);
  // Replication can never exceed the fleet size.
  EXPECT_EQ(BrokerNode::AssignedReplicas(ids, "x", 0, 9).size(), 4u);
}

TEST(BrokerNodeTest, ProduceDedupsOnProducerSeq) {
  BrokerOptions options;
  options.num_partitions = 1;
  options.replication_factor = 1;
  FleetHarness h(1, options);
  ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());

  ProduceAck ack;
  auto batch = [] {
    return BatchRequest(1, {"a", "b", "c"}, kT0, /*compressed=*/false);
  };
  BrokerNode* leader = h.Leader("clicks", 0);
  ASSERT_NE(leader, nullptr);
  ASSERT_TRUE(leader->ProduceBatch("clicks", 0, "host1", batch(), &ack).ok());
  EXPECT_EQ(ack.accepted, 3u);
  EXPECT_EQ(ack.deduped, 0u);

  // A crash-retry resend of the same (producer, seq) batch must not
  // re-append or re-count: entries_sent can never inflate past logged.
  ASSERT_TRUE(leader->ProduceBatch("clicks", 0, "host1", batch(), &ack).ok());
  EXPECT_EQ(ack.accepted, 0u);
  EXPECT_EQ(ack.deduped, 3u);
  const BrokerNodeStats stats = leader->stats();
  EXPECT_EQ(stats.entries_produced, 3u);
  EXPECT_EQ(stats.entries_duplicate, 3u);
  auto read = leader->ConsumerFetch("clicks", 0, 0, kFarFuture);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(Flatten(*read).size(), 3u);
}

TEST(BrokerNodeTest, BatchedProduceDedupsAcrossBatchBoundaries) {
  BrokerOptions options;
  options.num_partitions = 1;
  options.replication_factor = 1;
  FleetHarness h(1, options);
  ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());
  BrokerNode* leader = h.Leader("clicks", 0);
  ASSERT_NE(leader, nullptr);
  const uint64_t decompress_base = Lz::DecompressCallCount();

  auto payload = [](uint64_t seq) { return "payload-" + std::to_string(seq); };
  std::vector<std::string> first;
  for (uint64_t s = 1; s <= 5; ++s) first.push_back(payload(s));
  ProduceAck ack;
  ASSERT_TRUE(
      ProduceBatchOf(leader, "clicks", 0, "host1", 1, first, kT0, &ack).ok());
  EXPECT_EQ(ack.accepted, 5u);
  EXPECT_EQ(ack.deduped, 0u);

  // A crash-retry whose batch GREW while the daemon waited: seqs 3..8
  // partially overlap the appended run. The overlap must dedup and the
  // fresh tail must append — without splitting or rewriting the blob.
  std::vector<std::string> retried;
  for (uint64_t s = 3; s <= 8; ++s) retried.push_back(payload(s));
  ASSERT_TRUE(
      ProduceBatchOf(leader, "clicks", 0, "host1", 3, retried, kT0, &ack)
          .ok());
  EXPECT_EQ(ack.accepted, 3u);
  EXPECT_EQ(ack.deduped, 3u);

  // A fully covered resend appends nothing.
  ASSERT_TRUE(
      ProduceBatchOf(leader, "clicks", 0, "host1", 1, first, kT0, &ack).ok());
  EXPECT_EQ(ack.accepted, 0u);
  EXPECT_EQ(ack.deduped, 5u);

  const BrokerNodeStats stats = leader->stats();
  EXPECT_EQ(stats.entries_produced, 8u);
  EXPECT_EQ(stats.entries_duplicate, 8u);
  EXPECT_EQ(stats.log_entries, 8u);
  // The overlap was trimmed in metadata only: nothing on the produce path
  // ever decompressed a blob.
  EXPECT_EQ(Lz::DecompressCallCount(), decompress_base);

  auto read = leader->ConsumerFetch("clicks", 0, 0, kFarFuture);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->batches.size(), 2u);
  EXPECT_EQ(read->batches[1].skip_frames, 3u);
  std::vector<Record> records = Flatten(*read);
  ASSERT_EQ(records.size(), 8u);
  for (uint64_t s = 1; s <= 8; ++s) {
    EXPECT_EQ(records[s - 1].offset, s - 1);
    EXPECT_EQ(records[s - 1].seq, s);
    EXPECT_EQ(records[s - 1].payload, payload(s));
  }
}

TEST(BrokerNodeTest, AckLossBatchedResendResolvesWithoutSplit) {
  BrokerOptions options;
  options.num_partitions = 1;
  options.replication_factor = 1;
  FleetHarness h(1, options);
  ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());
  BrokerNode* leader = h.Leader("clicks", 0);
  ASSERT_NE(leader, nullptr);

  auto payload = [](uint64_t seq) { return "p" + std::to_string(seq); };
  leader->InjectAckLossOnce();
  ProduceAck ack;
  std::vector<std::string> lost{payload(1), payload(2), payload(3)};
  Status st = ProduceBatchOf(leader, "clicks", 0, "host1", 1, lost, kT0, &ack);
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  // Appended but unacknowledged: invisible to consumers until the resend
  // resolves the batch's fate.
  auto hidden = leader->ConsumerFetch("clicks", 0, 0, kFarFuture);
  ASSERT_TRUE(hidden.ok());
  EXPECT_EQ(hidden->record_count, 0u);

  // The retried batch grew by two entries while the daemon backed off.
  std::vector<std::string> resend;
  for (uint64_t s = 1; s <= 5; ++s) resend.push_back(payload(s));
  ASSERT_TRUE(
      ProduceBatchOf(leader, "clicks", 0, "host1", 1, resend, kT0, &ack).ok());
  EXPECT_EQ(ack.accepted, 5u);  // all five acknowledged for the first time
  EXPECT_EQ(ack.deduped, 3u);   // the head was already in the log

  const BrokerNodeStats stats = leader->stats();
  EXPECT_EQ(stats.entries_produced, 5u);
  EXPECT_EQ(stats.log_entries, 5u);
  auto read = leader->ConsumerFetch("clicks", 0, 0, kFarFuture);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->batches.size(), 2u);  // original + head-trimmed tail
  EXPECT_EQ(read->batches[1].skip_frames, 3u);
  std::vector<Record> records = Flatten(*read);
  ASSERT_EQ(records.size(), 5u);
  for (uint64_t s = 1; s <= 5; ++s) {
    EXPECT_EQ(records[s - 1].seq, s);
    EXPECT_EQ(records[s - 1].payload, payload(s));
  }
}

TEST(BrokerNodeTest, RetentionGaugesTrackCompressedAndUncompressedBytes) {
  BrokerOptions options;
  options.num_partitions = 1;
  options.replication_factor = 1;
  FleetHarness h(1, options);
  ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());
  BrokerNode* leader = h.Leader("clicks", 0);
  ASSERT_NE(leader, nullptr);

  // Highly compressible payloads: the stored blob is far smaller than the
  // uncompressed accounting unit.
  std::vector<std::string> b1, b2;
  for (int i = 0; i < 4; ++i) {
    b1.push_back(std::string(256, static_cast<char>('a' + i)));
    b2.push_back(std::string(256, static_cast<char>('e' + i)));
  }
  ProduceAck ack;
  ASSERT_TRUE(
      ProduceBatchOf(leader, "clicks", 0, "host1", 1, b1, kT0, &ack).ok());
  ASSERT_TRUE(
      ProduceBatchOf(leader, "clicks", 0, "host1", 5, b2, kT0, &ack).ok());

  BrokerNodeStats stats = leader->stats();
  EXPECT_EQ(stats.retained_bytes_uncompressed, 2048u);
  EXPECT_EQ(stats.retained_bytes_uncompressed, stats.log_bytes);
  EXPECT_GT(stats.retained_bytes_compressed, 0u);
  EXPECT_LT(stats.retained_bytes_compressed, stats.retained_bytes_uncompressed);

  // Committing into the middle of the second batch trims only the first:
  // retention is batch-granular and both gauges drop by exactly batch one.
  ASSERT_TRUE(h.fleet->CommitOffset("log-mover", "clicks", 0, 6, 6, 1536).ok());
  stats = leader->stats();
  EXPECT_EQ(stats.retained_bytes_uncompressed, 1024u);
  EXPECT_EQ(stats.log_entries, 4u);

  auto read = leader->ConsumerFetch("clicks", 0, 6, kFarFuture);
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(h.fleet
                  ->CommitOffset("log-mover", "clicks", 0, read->next_offset,
                                 read->record_count, 512)
                  .ok());
  stats = leader->stats();
  EXPECT_EQ(stats.retained_bytes_compressed, 0u);
  EXPECT_EQ(stats.retained_bytes_uncompressed, 0u);
  EXPECT_EQ(stats.log_entries, 0u);
}

TEST(BrokerNodeTest, GroupCommitShipsLaggingFollowerEverythingInOneRound) {
  BrokerOptions options;
  options.num_partitions = 1;
  options.replication_factor = 2;
  options.acks = kAcksAll;
  options.min_insync_replicas = 1;
  // Idle the periodic pull path so only produce-driven group commits move
  // data in this test.
  options.replica_fetch_interval_ms = 10 * kMillisPerMinute;
  FleetHarness h(2, options);
  ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());
  BrokerNode* leader = h.Leader("clicks", 0);
  ASSERT_NE(leader, nullptr);
  BrokerNode* follower =
      h.fleet->node(0) == leader ? h.fleet->node(1) : h.fleet->node(0);

  ProduceAck ack;
  ASSERT_TRUE(
      ProduceBatchOf(leader, "clicks", 0, "host1", 1, {"a1", "a2"}, kT0, &ack)
          .ok());
  // acks=all pipelines the mirror inside the produce call.
  EXPECT_EQ(follower->MirrorEndOffset("clicks", 0), 2u);
  EXPECT_EQ(leader->stats().replication_rounds, 1u);

  follower->Crash();
  h.sim.RunUntil(kT0 + kMillisPerSecond);
  ASSERT_EQ(h.Leader("clicks", 0), leader);
  // min_insync=1: the leader keeps accepting while the peer is down, and
  // the follower's backlog accumulates.
  ASSERT_TRUE(ProduceBatchOf(leader, "clicks", 0, "host1", 3, {"b1", "b2"},
                             h.sim.Now(), &ack)
                  .ok());
  ASSERT_TRUE(ProduceBatchOf(leader, "clicks", 0, "host1", 5, {"c1", "c2"},
                             h.sim.Now(), &ack)
                  .ok());
  EXPECT_EQ(leader->stats().replication_rounds, 1u);  // no live peer

  ASSERT_TRUE(follower->Start().ok());
  h.sim.RunUntil(kT0 + 2 * kMillisPerSecond);
  EXPECT_EQ(follower->MirrorEndOffset("clicks", 0), 0u);  // restarted empty

  // The next produce's group-commit round carries the whole backlog plus
  // the new batch in ONE MirrorBatches call.
  ASSERT_TRUE(ProduceBatchOf(leader, "clicks", 0, "host1", 7, {"d1", "d2"},
                             h.sim.Now(), &ack)
                  .ok());
  EXPECT_EQ(leader->stats().replication_rounds, 2u);
  EXPECT_EQ(follower->MirrorEndOffset("clicks", 0), 8u);
  uint64_t trim_to = 0;
  auto mirrored = follower->ReplicaFetch("clicks", 0, 0, &trim_to);
  ASSERT_TRUE(mirrored.ok());
  EXPECT_EQ(mirrored->record_count, 8u);
  std::vector<Record> records = Flatten(*mirrored);
  ASSERT_EQ(records.size(), 8u);
  EXPECT_EQ(records.back().seq, 8u);
}

TEST(BrokerNodeTest, BackpressureThrottlesInsteadOfDropping) {
  BrokerOptions options;
  options.num_partitions = 1;
  options.replication_factor = 1;
  options.partition_inflight_limit_bytes = 8;
  FleetHarness h(1, options);
  ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());

  ASSERT_TRUE(h.ProduceOne("clicks", 0, "host1", 1, "0123456789").ok());
  // The retained log is past the window: the next produce is pushed back,
  // not silently dropped-oldest.
  Status st = h.ProduceOne("clicks", 0, "host1", 2, "x");
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(h.Leader("clicks", 0)->stats().throttled_backpressure, 1u);

  // Consuming (and committing) drains the window and produce resumes.
  auto read = h.Leader("clicks", 0)->ConsumerFetch("clicks", 0, 0, kFarFuture);
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(h.fleet
                  ->CommitOffset("log-mover", "clicks", 0, read->next_offset,
                                 read->record_count, 10)
                  .ok());
  EXPECT_TRUE(h.ProduceOne("clicks", 0, "host1", 2, "x").ok());
}

TEST(BrokerNodeTest, FailoverElectsMostCaughtUpReplica) {
  BrokerOptions options;
  options.num_partitions = 1;
  options.replication_factor = 2;
  options.replica_fetch_interval_ms = 500;
  FleetHarness h(2, options);
  ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());

  BrokerNode* first = h.Leader("clicks", 0);
  ASSERT_NE(first, nullptr);
  for (uint64_t seq = 1; seq <= 10; ++seq) {
    ASSERT_TRUE(h.ProduceOne("clicks", 0, "host1", seq, "payload").ok());
  }
  // Let the follower mirror, then kill the leader.
  h.sim.RunUntil(kT0 + 2 * kMillisPerSecond);
  first->Crash();
  h.sim.RunUntil(kT0 + 3 * kMillisPerSecond);

  BrokerNode* second = h.Leader("clicks", 0);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second, first);
  EXPECT_TRUE(second->IsLeader("clicks", 0));
  // Everything was replicated before the crash: no failover loss, and the
  // full range stays consumable from the new leader.
  EXPECT_EQ(second->stats().entries_lost_failover, 0u);
  auto read = second->ConsumerFetch("clicks", 0, 0, kFarFuture);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->record_count, 10u);
  // The new leader inherits the idempotence table: the old producer's
  // seqs stay deduped.
  ProduceAck ack;
  ASSERT_TRUE(h.ProduceOne("clicks", 0, "host1", 10, "payload", &ack).ok());
  EXPECT_EQ(ack.accepted, 0u);
  EXPECT_EQ(ack.deduped, 1u);
}

TEST(BrokerNodeTest, UnreplicatedAckedEntriesAreChargedToFailoverLoss) {
  BrokerOptions options;
  options.num_partitions = 1;
  options.replication_factor = 2;
  options.replica_fetch_interval_ms = 500;
  FleetHarness h(2, options);
  ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());

  BrokerNode* first = h.Leader("clicks", 0);
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(h.ProduceOne("clicks", 0, "host1", 1, "replicated").ok());
  h.sim.RunUntil(kT0 + 2 * kMillisPerSecond);  // follower catches up
  // Acked but never fetched by the follower: dies with the leader.
  ASSERT_TRUE(h.ProduceOne("clicks", 0, "host1", 2, "unreplicated").ok());
  first->Crash();
  h.sim.RunUntil(kT0 + 3 * kMillisPerSecond);

  BrokerNode* second = h.Leader("clicks", 0);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->stats().entries_lost_failover, 1u);
  // The lost offset is an explicit gap, not a silent hole: consumption
  // resumes past it.
  auto read = second->ConsumerFetch("clicks", 0, 0, kFarFuture);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->record_count, 1u);
  EXPECT_EQ(read->next_offset, 2u);
}

TEST(BrokerNodeTest, AcksAllRejectsBelowMinInsync) {
  BrokerOptions options;
  options.num_partitions = 1;
  options.replication_factor = 2;
  options.acks = kAcksAll;
  options.min_insync_replicas = 2;
  FleetHarness h(2, options);
  ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());

  ASSERT_TRUE(h.ProduceOne("clicks", 0, "host1", 1, "a").ok());
  // Synchronous replication: the follower already holds the record.
  BrokerNode* follower = h.fleet->node(0)->IsLeader("clicks", 0)
                             ? h.fleet->node(1)
                             : h.fleet->node(0);
  uint64_t trim_to = 0;
  auto mirrored = follower->ReplicaFetch("clicks", 0, 0, &trim_to);
  ASSERT_TRUE(mirrored.ok());
  EXPECT_EQ(mirrored->record_count, 1u);

  follower->Crash();
  h.sim.RunUntil(kT0 + kMillisPerSecond);
  Status st = h.ProduceOne("clicks", 0, "host1", 2, "b");
  EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  EXPECT_EQ(h.Leader("clicks", 0)->stats().insufficient_replicas, 1u);
}

// ---------------------------------------------------------------------------
// Cluster-level chaos suite

scribe::ClusterTopology BrokerTopology(int brokers, BrokerOptions options) {
  scribe::ClusterTopology topology;
  topology.datacenters = {"dc1"};
  topology.daemons_per_dc = 4;
  topology.brokers_per_dc = brokers;
  topology.broker_options = options;
  return topology;
}

// Drives a steady two-category workload over [from, until).
void ScheduleWorkload(Simulator* sim, scribe::ScribeCluster* cluster,
                      TimeMs from, TimeMs until) {
  for (TimeMs t = from; t < until; t += 5 * kMillisPerSecond) {
    sim->At(t, [cluster] {
      for (int i = 0; i < 10; ++i) {
        cluster->Log(0, scribe::LogEntry{i % 2 == 0 ? "clicks" : "search",
                                         "message-" + std::to_string(i)});
      }
    });
  }
}

// Samples consumer-group offsets every 30 s and records any regression.
// Each sample also checks the batches that ConsumerFetch and ReplicaFetch
// return against the traffic daemons produce: append times never fall in
// offset order, and a batch's included frames run to its body's last
// frame, so no read stops inside a batch.
class OffsetMonotonicityProbe {
 public:
  OffsetMonotonicityProbe(Simulator* sim, scribe::ScribeCluster* cluster,
                          int num_partitions, TimeMs until)
      : sim_(sim), cluster_(cluster), num_partitions_(num_partitions) {
    Schedule(until);
  }

  bool violated() const { return violated_; }
  /// The first fetched batch that broke a batch check, or "".
  const std::string& batch_fault() const { return batch_fault_; }
  uint64_t batches_checked() const { return batches_checked_; }
  /// Lz::Decompress calls the probe made itself.
  uint64_t decompressions() const { return decompressions_; }

 private:
  void Schedule(TimeMs until) {
    sim_->After(30 * kMillisPerSecond, [this, until] {
      Sample();
      if (sim_->Now() < until) Schedule(until);
    });
  }

  void Sample() {
    for (const char* category : {"clicks", "search"}) {
      for (int p = 0; p < num_partitions_; ++p) {
        uint64_t off =
            cluster_->fleet(0)->CommittedOffset("log-mover", category, p);
        uint64_t& prev = last_[{category, p}];
        if (off < prev) violated_ = true;
        prev = off;
        CheckFetches(category, p, off);
      }
    }
  }

  // Reads as the log mover does (from the committed offset, up to the
  // last closed hour, or without a time limit) and as a follower does.
  void CheckFetches(const std::string& category, int p, uint64_t from) {
    if (BrokerNode* leader = cluster_->fleet(0)->FindLeader(category, p)) {
      const TimeMs hour = sim_->Now() / kMillisPerHour * kMillisPerHour;
      for (TimeMs ts_limit : {hour, kFarFuture}) {
        auto read = leader->ConsumerFetch(category, p, from, ts_limit);
        if (read.ok()) CheckBatches(*read);
      }
    }
    for (size_t b = 0; b < cluster_->broker_count(0); ++b) {
      auto read =
          cluster_->broker(0, b)->ReplicaFetch(category, p, 0, nullptr);
      if (read.ok()) CheckBatches(*read);
    }
  }

  void CheckBatches(const PartitionLog::ReadResult& read) {
    TimeMs prev_appended_at = 0;
    for (const Batch& b : read.batches) {
      ++batches_checked_;
      if (b.appended_at < prev_appended_at) {
        Fault(b, "appended at " + std::to_string(b.appended_at));
      }
      prev_appended_at = b.appended_at;
      std::string_view body;
      if (b.body != nullptr) body = *b.body;
      std::string inflated;
      if (b.compressed) {
        const uint64_t before = Lz::DecompressCallCount();
        auto whole = Lz::Decompress(body);
        decompressions_ += Lz::DecompressCallCount() - before;
        if (!whole.ok()) {
          Fault(b, whole.status().ToString());
          continue;
        }
        inflated = std::move(*whole);
        body = inflated;
      }
      Decoder dec(body);
      uint64_t frames = 0;
      uint64_t logged_at = 0;
      std::string_view payload;
      while (!dec.AtEnd()) {
        if (!dec.GetVarint64(&logged_at).ok() ||
            !dec.GetLengthPrefixed(&payload).ok()) {
          Fault(b, "malformed frame");
          break;
        }
        ++frames;
      }
      if (frames != uint64_t{b.skip_frames} + b.count) {
        Fault(b, "body holds " + std::to_string(frames) + " frames");
      }
    }
  }

  void Fault(const Batch& b, const std::string& what) {
    if (!batch_fault_.empty()) return;
    batch_fault_ = "batch at " + std::to_string(b.base_offset) + " (skip " +
                   std::to_string(b.skip_frames) + ", count " +
                   std::to_string(b.count) + "): " + what;
  }

  Simulator* sim_;
  scribe::ScribeCluster* cluster_;
  int num_partitions_;
  std::map<std::pair<std::string, int>, uint64_t> last_;
  bool violated_ = false;
  std::string batch_fault_;
  uint64_t batches_checked_ = 0;
  uint64_t decompressions_ = 0;
};

// Every live-replica partition must have exactly one leader at quiescence.
void ExpectExactlyOneLeader(scribe::ScribeCluster* cluster,
                            int num_partitions) {
  for (const char* category : {"clicks", "search"}) {
    for (int p = 0; p < num_partitions; ++p) {
      int leaders = 0;
      for (size_t b = 0; b < cluster->broker_count(0); ++b) {
        if (cluster->broker(0, b)->alive() &&
            cluster->broker(0, b)->IsLeader(category, p)) {
          ++leaders;
        }
      }
      EXPECT_EQ(leaders, 1) << category << "/" << p;
    }
  }
}

// Runs well past the hour close so daemon queues, broker partitions, and
// the mover all drain; the workload must end inside the first hour.
void DrainToQuiescence(Simulator* sim) {
  sim->RunUntil(kT0 + kMillisPerHour + 20 * kMillisPerMinute);
}

TEST(BrokerChaosTest, LeaderKillMidProduceKeepsAuditBalanced) {
  Simulator sim(kT0);
  BrokerOptions options;
  options.num_partitions = 4;
  options.replication_factor = 2;
  scribe::ScribeOptions scribe_options;
  scribe::LogMoverOptions mover_options;
  scribe::ScribeCluster cluster(&sim, BrokerTopology(3, options),
                                scribe_options, mover_options,
                                /*seed=*/42);
  ASSERT_TRUE(cluster.Start().ok());

  ScheduleWorkload(&sim, &cluster, kT0 + kMillisPerSecond,
                   kT0 + 15 * kMillisPerMinute);
  OffsetMonotonicityProbe probe(&sim, &cluster, options.num_partitions,
                                kT0 + kMillisPerHour);

  // Mid-produce: lose an ack (forcing an idempotent resend), then kill the
  // node outright; restart it later so every partition regains both
  // replicas before the drain.
  sim.At(kT0 + 5 * kMillisPerMinute, [&] {
    BrokerNode* leader = cluster.fleet(0)->FindLeader("clicks", 0);
    ASSERT_NE(leader, nullptr);
    leader->InjectAckLossOnce();
  });
  sim.At(kT0 + 7 * kMillisPerMinute, [&] {
    BrokerNode* leader = cluster.fleet(0)->FindLeader("clicks", 0);
    ASSERT_NE(leader, nullptr);
    leader->Crash();
  });
  sim.At(kT0 + 20 * kMillisPerMinute, [&] {
    for (size_t b = 0; b < cluster.broker_count(0); ++b) {
      if (!cluster.broker(0, b)->alive()) {
        ASSERT_TRUE(cluster.RestartBroker(0, b).ok());
      }
    }
  });

  DrainToQuiescence(&sim);

  obs::DeliveryAudit audit(&cluster);
  const obs::DeliverySnapshot snap = audit.Snapshot();
  EXPECT_TRUE(snap.Balanced()) << snap.ToString();
  EXPECT_EQ(snap.in_flight_broker, 0u) << snap.ToString();
  EXPECT_EQ(snap.in_flight_daemons, 0u) << snap.ToString();
  // Quiescent identity with drift zero: everything logged is warehoused or
  // in a named loss channel.
  EXPECT_EQ(snap.logged, snap.warehoused + snap.dropped_at_daemons +
                             snap.lost_unreplicated);
  // The injected ack loss forced at least one dedup resend.
  const scribe::ClusterStats totals = cluster.TotalStats();
  EXPECT_GT(totals.entries_dup_resends, 0u);
  EXPECT_GT(totals.broker_elections, 0u);
  EXPECT_FALSE(probe.violated());
  EXPECT_EQ(probe.batch_fault(), "");
  EXPECT_GT(probe.batches_checked(), 0u);
  ExpectExactlyOneLeader(&cluster, options.num_partitions);
}

// The batched-path variant of leader failover: the daemon's compressed
// produce batches are mid-flight (and one mid-batch ack is lost) when the
// leader dies. The blobs must survive failover intact — re-elected leaders
// rebuild watermarks from batch metadata, mirrors share blobs — and the Lz
// probes must show the payload was decompressed exactly once, at warehouse
// landing.
TEST(BrokerChaosTest, LeaderFailoverMidBatchDecompressesOnlyAtLanding) {
  Lz::ResetCompressionProbes();
  Simulator sim(kT0);
  BrokerOptions options;
  options.num_partitions = 4;
  options.replication_factor = 2;
  scribe::ScribeOptions scribe_options;
  scribe::LogMoverOptions mover_options;
  scribe::ScribeCluster cluster(&sim, BrokerTopology(3, options),
                                scribe_options, mover_options,
                                /*seed=*/1234);
  ASSERT_TRUE(cluster.Start().ok());

  ScheduleWorkload(&sim, &cluster, kT0 + kMillisPerSecond,
                   kT0 + 15 * kMillisPerMinute);
  OffsetMonotonicityProbe probe(&sim, &cluster, options.num_partitions,
                                kT0 + kMillisPerHour);

  sim.At(kT0 + 5 * kMillisPerMinute, [&] {
    BrokerNode* leader = cluster.fleet(0)->FindLeader("search", 2);
    ASSERT_NE(leader, nullptr);
    leader->InjectAckLossOnce();  // a batch resend with an overlapping head
  });
  // The ack-lost produce waits out the daemon's linger; the crash follows it.
  const TimeMs crash_at = kT0 + 5 * kMillisPerMinute +
                          scribe_options.daemon_linger_ms +
                          2 * kMillisPerSecond;
  sim.At(crash_at, [&] {
    BrokerNode* leader = cluster.fleet(0)->FindLeader("search", 2);
    if (leader != nullptr) leader->Crash();
  });
  sim.At(kT0 + 18 * kMillisPerMinute, [&] {
    for (size_t b = 0; b < cluster.broker_count(0); ++b) {
      if (!cluster.broker(0, b)->alive()) {
        ASSERT_TRUE(cluster.RestartBroker(0, b).ok());
      }
    }
  });

  DrainToQuiescence(&sim);

  obs::DeliveryAudit audit(&cluster);
  const obs::DeliverySnapshot snap = audit.Snapshot();
  EXPECT_TRUE(snap.Balanced()) << snap.ToString();
  EXPECT_EQ(snap.in_flight_broker, 0u) << snap.ToString();
  EXPECT_EQ(snap.logged, snap.warehoused + snap.dropped_at_daemons +
                             snap.lost_unreplicated);
  const scribe::ClusterStats totals = cluster.TotalStats();
  EXPECT_GT(totals.entries_dup_resends, 0u);
  EXPECT_FALSE(probe.violated());
  EXPECT_EQ(probe.batch_fault(), "");
  EXPECT_GT(probe.batches_checked(), 0u);
  ExpectExactlyOneLeader(&cluster, options.num_partitions);

  // The decompress-count probe: a broker-tier datacenter stages nothing,
  // so the only legal decompressions in the whole run are the mover's
  // batch decodes at warehouse landing — append, replication, failover
  // recovery, and fetch never opened a blob. The offset probe's own
  // batch checks are left out of the count.
  const scribe::LogMoverStats mstats = cluster.mover()->stats();
  EXPECT_GT(mstats.broker_batches_decoded, 0u);
  EXPECT_EQ(Lz::DecompressCallCount() - probe.decompressions(),
            mstats.broker_batches_decoded);
}

TEST(BrokerChaosTest, SessionExpiryDuringElectionLosesNothing) {
  Simulator sim(kT0);
  BrokerOptions options;
  options.num_partitions = 4;
  options.replication_factor = 2;
  scribe::ScribeOptions scribe_options;
  scribe::LogMoverOptions mover_options;
  scribe::ScribeCluster cluster(&sim, BrokerTopology(3, options),
                                scribe_options, mover_options,
                                /*seed=*/7);
  ASSERT_TRUE(cluster.Start().ok());

  ScheduleWorkload(&sim, &cluster, kT0 + kMillisPerSecond,
                   kT0 + 15 * kMillisPerMinute);
  OffsetMonotonicityProbe probe(&sim, &cluster, options.num_partitions,
                                kT0 + kMillisPerHour);

  // Expire the current leader's session mid-stream — its ephemeral
  // candidates vanish (peers campaign) while its logs stay intact — and a
  // second expiry shortly after hits the re-election window itself.
  for (TimeMs at : {kT0 + 5 * kMillisPerMinute,
                    kT0 + 5 * kMillisPerMinute + kMillisPerSecond}) {
    sim.At(at, [&] {
      BrokerNode* leader = cluster.fleet(0)->FindLeader("search", 1);
      if (leader == nullptr) return;  // mid-election: nothing to expire
      for (size_t b = 0; b < cluster.broker_count(0); ++b) {
        if (cluster.broker(0, b) == leader) {
          ASSERT_TRUE(cluster.ExpireBrokerSession(0, b).ok());
        }
      }
    });
  }

  DrainToQuiescence(&sim);

  obs::DeliveryAudit audit(&cluster);
  const obs::DeliverySnapshot snap = audit.Snapshot();
  EXPECT_TRUE(snap.Balanced()) << snap.ToString();
  EXPECT_EQ(snap.in_flight_broker, 0u) << snap.ToString();
  // Session expiry is not a crash: no log was lost anywhere.
  EXPECT_EQ(snap.lost_unreplicated, 0u) << snap.ToString();
  EXPECT_EQ(snap.logged, snap.warehoused + snap.dropped_at_daemons);
  EXPECT_FALSE(probe.violated());
  EXPECT_EQ(probe.batch_fault(), "");
  EXPECT_GT(probe.batches_checked(), 0u);
  ExpectExactlyOneLeader(&cluster, options.num_partitions);
}

TEST(BrokerChaosTest, AcksAllWithReplicaDownLosesNoAckedEntry) {
  Simulator sim(kT0);
  BrokerOptions options;
  options.num_partitions = 4;
  options.replication_factor = 2;
  options.acks = kAcksAll;
  options.min_insync_replicas = 2;
  scribe::ScribeOptions scribe_options;
  scribe::LogMoverOptions mover_options;
  scribe::ScribeCluster cluster(&sim, BrokerTopology(3, options),
                                scribe_options, mover_options,
                                /*seed=*/99);
  ASSERT_TRUE(cluster.Start().ok());

  ScheduleWorkload(&sim, &cluster, kT0 + kMillisPerSecond,
                   kT0 + 15 * kMillisPerMinute);
  OffsetMonotonicityProbe probe(&sim, &cluster, options.num_partitions,
                                kT0 + kMillisPerHour);

  // One replica down: partitions it backs fall below min_insync and
  // producers are pushed back (backpressure), not acknowledged into a
  // single point of failure. Acked entries always exist on both replicas.
  sim.At(kT0 + 3 * kMillisPerMinute, [&] { cluster.CrashBroker(0, 1); });
  sim.At(kT0 + 9 * kMillisPerMinute, [&] {
    ASSERT_TRUE(cluster.RestartBroker(0, 1).ok());
  });

  DrainToQuiescence(&sim);

  obs::DeliveryAudit audit(&cluster);
  const obs::DeliverySnapshot snap = audit.Snapshot();
  EXPECT_TRUE(snap.Balanced()) << snap.ToString();
  EXPECT_EQ(snap.in_flight_broker, 0u) << snap.ToString();
  // The acks=all guarantee: zero acknowledged entries lost, ever.
  EXPECT_EQ(snap.lost_unreplicated, 0u) << snap.ToString();
  EXPECT_EQ(snap.logged, snap.warehoused + snap.dropped_at_daemons);
  // The outage exercised the pushback path.
  const scribe::ClusterStats totals = cluster.TotalStats();
  EXPECT_GT(totals.produce_throttled, 0u);
  EXPECT_FALSE(probe.violated());
  EXPECT_EQ(probe.batch_fault(), "");
  EXPECT_GT(probe.batches_checked(), 0u);
  ExpectExactlyOneLeader(&cluster, options.num_partitions);
}

// Property: across seeded crash/ack-loss schedules — with whole-queue
// batches AND with batches capped at two records, whose retries straddle
// batch boundaries far more often — a daemon's entries_sent (unique
// acknowledged sends) never exceeds its entries_logged: resends are deduped
// on (producer, seq), batch overlap included, so crash-retry cannot inflate
// delivery.
TEST(BrokerPropertyTest, CrashRetryNeverInflatesSentPastLogged) {
  struct SweepCase {
    uint64_t seed;
    uint64_t max_batch_bytes;  // 0 = whole queue per flush
  };
  // Workload messages are 9 bytes, so a 20-byte cap ships two per batch.
  for (const SweepCase sweep : {SweepCase{1, 0}, SweepCase{2, 0},
                                SweepCase{3, 0}, SweepCase{1, 20}}) {
    const uint64_t seed = sweep.seed;
    Simulator sim(kT0);
    BrokerOptions options;
    options.num_partitions = 4;
    options.replication_factor = 2;
    scribe::ScribeOptions scribe_options;
    scribe_options.daemon_max_batch_bytes = sweep.max_batch_bytes;
    scribe::LogMoverOptions mover_options;
    scribe::ScribeCluster cluster(&sim, BrokerTopology(3, options),
                                  scribe_options, mover_options, seed);
    ASSERT_TRUE(cluster.Start().ok());

    ScheduleWorkload(&sim, &cluster, kT0 + kMillisPerSecond,
                     kT0 + 12 * kMillisPerMinute);
    // An ack loss plus a crash every two minutes, rotating targets.
    for (int round = 0; round < 4; ++round) {
      TimeMs at = kT0 + (2 + 2 * round) * kMillisPerMinute;
      sim.At(at, [&cluster, round] {
        BrokerNode* leader =
            cluster.fleet(0)->FindLeader(round % 2 == 0 ? "clicks" : "search",
                                         round % 4);
        if (leader != nullptr) leader->InjectAckLossOnce();
      });
      sim.At(at + 30 * kMillisPerSecond, [&cluster, round] {
        size_t victim = static_cast<size_t>(round) % cluster.broker_count(0);
        if (cluster.broker(0, victim)->alive()) {
          cluster.CrashBroker(0, victim);
        }
      });
      sim.At(at + 90 * kMillisPerSecond, [&cluster] {
        for (size_t b = 0; b < cluster.broker_count(0); ++b) {
          if (!cluster.broker(0, b)->alive()) {
            ASSERT_TRUE(cluster.RestartBroker(0, b).ok());
          }
        }
      });
    }

    // Invariant checked while the chaos is still in flight, not only at
    // quiescence.
    for (TimeMs t = kT0 + kMillisPerMinute; t < kT0 + 14 * kMillisPerMinute;
         t += kMillisPerMinute) {
      sim.At(t, [&cluster, seed] {
        for (size_t d = 0; d < cluster.daemon_count(0); ++d) {
          const scribe::DaemonStats s = cluster.daemon(0, d)->stats();
          ASSERT_LE(s.entries_sent, s.entries_logged) << "seed " << seed;
        }
      });
    }

    DrainToQuiescence(&sim);

    obs::DeliveryAudit audit(&cluster);
    const obs::DeliverySnapshot snap = audit.Snapshot();
    EXPECT_TRUE(snap.Balanced())
        << "seed " << seed << " max_batch_bytes " << sweep.max_batch_bytes
        << ": " << snap.ToString();
    EXPECT_EQ(snap.in_flight_broker, 0u)
        << "seed " << seed << ": " << snap.ToString();
    for (size_t d = 0; d < cluster.daemon_count(0); ++d) {
      const scribe::DaemonStats s = cluster.daemon(0, d)->stats();
      EXPECT_LE(s.entries_sent, s.entries_logged);
    }
  }
}

// The broker-consumed warehouse hour is indistinguishable downstream: data
// lands at /logs/<category>/YYYY/MM/DD/HH as framed parts, same as the
// aggregator path — and the batched delivery path decompressed each blob
// exactly once, at landing.
TEST(BrokerClusterTest, WarehouseLayoutUnchangedDownstream) {
  Lz::ResetCompressionProbes();
  Simulator sim(kT0);
  BrokerOptions options;
  options.num_partitions = 2;
  options.replication_factor = 2;
  scribe::ScribeOptions scribe_options;
  scribe::LogMoverOptions mover_options;
  scribe::ScribeCluster cluster(&sim, BrokerTopology(2, options),
                                scribe_options, mover_options, /*seed=*/5);
  ASSERT_TRUE(cluster.Start().ok());

  ScheduleWorkload(&sim, &cluster, kT0 + kMillisPerSecond,
                   kT0 + 5 * kMillisPerMinute);
  DrainToQuiescence(&sim);

  EXPECT_TRUE(cluster.warehouse()->Exists("/logs/clicks/2012/08/21/00"));
  EXPECT_TRUE(cluster.warehouse()->Exists("/logs/search/2012/08/21/00"));
  auto files = cluster.warehouse()->ListRecursive("/logs/clicks/2012/08/21/00");
  ASSERT_TRUE(files.ok());
  EXPECT_FALSE(files->empty());

  obs::DeliveryAudit audit(&cluster);
  EXPECT_TRUE(audit.Check().ok());
  const obs::DeliverySnapshot snap = audit.Snapshot();
  EXPECT_EQ(snap.logged, snap.warehoused);  // no faults: full delivery

  // Single-decompression invariant on the fault-free path too.
  const scribe::LogMoverStats mstats = cluster.mover()->stats();
  EXPECT_GT(mstats.broker_batches_decoded, 0u);
  EXPECT_EQ(Lz::DecompressCallCount(), mstats.broker_batches_decoded);
}

// Session-expiry storm at fleet scale: 120 daemons funnel into a 5-broker
// tier while three seeded storms each expire a random run of broker
// sessions at 250 ms spacing. Expiry is not a crash — the logs survive —
// so the drain must deliver everything, every partition must end with
// exactly one leader, and re-election/rediscovery churn must stay bounded
// (storms re-elect displaced partitions, not a thundering herd).
TEST(BrokerChaosTest, SessionExpiryStormAtScaleConvergesBounded) {
  Simulator sim(kT0);
  BrokerOptions options;
  options.num_partitions = 4;
  options.replication_factor = 2;
  scribe::ClusterTopology topology = BrokerTopology(5, options);
  topology.daemons_per_dc = 120;
  scribe::ScribeOptions scribe_options;
  scribe::LogMoverOptions mover_options;
  scribe::ScribeCluster cluster(&sim, topology, scribe_options,
                                mover_options, /*seed=*/2026);
  ASSERT_TRUE(cluster.Start().ok());

  ScheduleWorkload(&sim, &cluster, kT0 + kMillisPerSecond,
                   kT0 + 15 * kMillisPerMinute);
  OffsetMonotonicityProbe probe(&sim, &cluster, options.num_partitions,
                                kT0 + kMillisPerHour);

  Rng rng(99);
  int expiries = 0;
  for (TimeMs storm : {kT0 + 3 * kMillisPerMinute,
                       kT0 + 6 * kMillisPerMinute,
                       kT0 + 9 * kMillisPerMinute}) {
    const int count = 2 + static_cast<int>(rng.Uniform(3));  // 2..4 brokers
    const size_t first = rng.Uniform(cluster.broker_count(0));
    for (int i = 0; i < count; ++i) {
      const size_t target = (first + i) % cluster.broker_count(0);
      sim.At(storm + i * 250, [&cluster, target] {
        // A storm can hit a broker twice; a dead session is fine to skip.
        (void)cluster.ExpireBrokerSession(0, target);
      });
      ++expiries;
    }
  }

  DrainToQuiescence(&sim);

  obs::DeliveryAudit audit(&cluster);
  const obs::DeliverySnapshot snap = audit.Snapshot();
  EXPECT_TRUE(snap.Balanced()) << snap.ToString();
  EXPECT_TRUE(audit.AssertQuiescent().ok()) << snap.ToString();
  // Expiry is not a crash: nothing was lost on any replica.
  EXPECT_EQ(snap.lost_unreplicated, 0u) << snap.ToString();
  EXPECT_EQ(snap.logged, snap.warehoused + snap.dropped_at_daemons)
      << snap.ToString();
  EXPECT_FALSE(probe.violated());
  EXPECT_EQ(probe.batch_fault(), "");
  EXPECT_GT(probe.batches_checked(), 0u);
  ExpectExactlyOneLeader(&cluster, options.num_partitions);

  const scribe::ClusterStats totals = cluster.TotalStats();
  EXPECT_GT(totals.broker_elections, 0u);
  // Bounded re-election: the initial election per (category, partition)
  // plus at most one re-election per partition per expiry.
  const uint64_t partitions = 2u * options.num_partitions;
  EXPECT_LE(totals.broker_elections,
            partitions + partitions * static_cast<uint64_t>(expiries));
  // Bounded rediscovery: each of the 120 daemons re-resolves leadership at
  // most once per expiry on top of its initial discovery.
  EXPECT_LE(totals.daemon_rediscoveries,
            static_cast<uint64_t>(topology.daemons_per_dc) *
                static_cast<uint64_t>(1 + expiries));
}

// ---------------------------------------------------------------------------
// Follower fetch ticks

// One observable change of a follower replica: when (ms after kT0) its
// mirrored end offset or retained entry count moved, and to what.
struct MirrorChange {
  TimeMs at = 0;
  uint64_t end = 0;
  uint64_t entries = 0;
  bool operator==(const MirrorChange&) const = default;
};

std::ostream& operator<<(std::ostream& os, const MirrorChange& c) {
  return os << "{" << c.at << ", " << c.end << ", " << c.entries << "}";
}

TEST(BrokerFetchTest, LaggingAcksOneFollowerMirrorsAndTrimsOnItsTicks) {
  BrokerOptions options;
  options.num_partitions = 1;
  options.replication_factor = 2;
  options.acks = kAcksLeader;
  options.replica_fetch_interval_ms = 500;
  FleetHarness h(2, options);
  ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());
  BrokerNode* leader = h.Leader("clicks", 0);
  ASSERT_NE(leader, nullptr);
  BrokerNode* follower =
      h.fleet->node(0) == leader ? h.fleet->node(1) : h.fleet->node(0);

  uint64_t seq = 0;
  auto produce_at = [&](TimeMs at) {
    h.sim.At(kT0 + at, [&] {
      ++seq;
      EXPECT_TRUE(h.ProduceOne("clicks", 0, "host1", seq, "p").ok());
    });
  };
  produce_at(100);
  produce_at(600);
  produce_at(700);
  h.sim.At(kT0 + 1200, [&] { leader->NoteConsumedTo("clicks", 0, 2); });
  // The follower falls behind: down across two produces and a trim, then
  // restarted empty on a tick phase of its own.
  h.sim.At(kT0 + 1600, [&] { follower->Crash(); });
  produce_at(1700);
  produce_at(2300);
  h.sim.At(kT0 + 2400, [&] { leader->NoteConsumedTo("clicks", 0, 4); });
  h.sim.At(kT0 + 2650, [&] { ASSERT_TRUE(follower->Start().ok()); });
  produce_at(3300);
  h.sim.At(kT0 + 3900, [&] { leader->NoteConsumedTo("clicks", 0, 6); });

  std::vector<MirrorChange> changes;
  MirrorChange last;
  while (h.sim.PendingEvents() > 0 && h.sim.Now() < kT0 + 5000) {
    h.sim.Step();
    const uint64_t end = follower->alive()
                             ? follower->MirrorEndOffset("clicks", 0)
                             : 0;
    MirrorChange now{h.sim.Now() - kT0, end, follower->stats().log_entries};
    if (now.end != last.end || now.entries != last.entries) {
      changes.push_back(now);
    }
    last = now;
  }
  // Every change lands on a fetch tick (every 500 ms from the start, and
  // from the restart at 2650): the first tick after each produce mirrors
  // it, and the first tick after each leader trim mirrors the trim.
  const std::vector<MirrorChange> expected = {
      {500, 1, 1},   // produce @100
      {1000, 3, 3},  // produces @600, @700
      {1500, 3, 1},  // leader trim to 2 @1200
      {1600, 0, 0},  // crash
      {3150, 5, 1},  // first tick after restart: [4, 5) past the trim to 4
      {3650, 6, 2},  // produce @3300
      {4150, 6, 0},  // leader trim to 6 @3900
  };
  EXPECT_EQ(changes, expected);
}

// Whenever a follower's fetch-tick memo claims to be current (its stamp
// equals the candidates directory's), it equals a fresh ElectLeader; and
// once the churn stops, every follower's next ticks bring it current.
TEST(BrokerFetchTest, ElectionMemoEqualsAFreshElectionUnderChurn) {
  constexpr int kNodes = 4;
  constexpr int kPartitions = 3;
  for (int acks : {kAcksLeader, kAcksAll}) {
    SCOPED_TRACE(acks == kAcksAll ? "acks=all" : "acks=1");
    BrokerOptions options;
    options.num_partitions = kPartitions;
    options.replication_factor = 3;
    options.acks = acks;
    options.replica_fetch_interval_ms = 500;
    FleetHarness h(kNodes, options);
    ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());

    Rng rng(acks == kAcksAll ? 2026 : 1729);
    std::map<int, uint64_t> seqs;  // producer id -> last seq sent
    constexpr TimeMs kChurn = 60 * kMillisPerSecond;
    for (int i = 0; i < 400; ++i) {
      const TimeMs at = kT0 + static_cast<TimeMs>(rng.Uniform(kChurn));
      const size_t node = rng.Uniform(kNodes);
      const int partition = static_cast<int>(rng.Uniform(kPartitions));
      switch (rng.Uniform(8)) {
        case 0:
          h.sim.At(at, [&h, node] { h.fleet->node(node)->Crash(); });
          break;
        case 1:
          h.sim.At(at, [&h, node] { (void)h.fleet->node(node)->Start(); });
          break;
        case 2:
          h.sim.At(at,
                   [&h, node] { (void)h.fleet->node(node)->ExpireSession(); });
          break;
        default: {
          const int producer = static_cast<int>(node) * 10 + partition;
          h.sim.At(at, [&h, &seqs, producer, partition] {
            const uint64_t seq = ++seqs[producer];
            (void)h.ProduceOne("clicks", partition,
                               "host" + std::to_string(producer), seq, "p");
          });
        }
      }
    }
    // Every node alive at the end, so each partition has followers.
    for (int n = 0; n < kNodes; ++n) {
      h.sim.At(kT0 + kChurn, [&h, n] { (void)h.fleet->node(n)->Start(); });
    }

    // Checks every live follower replica; returns how many memos were
    // current (and so compared), collecting the distinct elections seen.
    std::set<std::pair<int, uint64_t>> elections;  // (node, stamp)
    auto check = [&]() -> int {
      int current = 0;
      for (int n = 0; n < kNodes; ++n) {
        BrokerNode* node = h.fleet->node(n);
        for (int p = 0; p < kPartitions; ++p) {
          const BrokerNode::ElectionMemo* memo =
              node->fetch_election("clicks", p);
          if (!node->alive() || memo == nullptr ||
              node->IsLeader("clicks", p)) {
            continue;
          }
          if (memo->stamp != h.zk.ChildStamp(CandidatesPath("dc1", "clicks",
                                                            p))) {
            continue;
          }
          ++current;
          elections.emplace(n, memo->stamp);
          auto fresh = ElectLeader(h.zk, "dc1", "clicks", p);
          EXPECT_EQ(memo->elected, fresh.ok()) << "t=" << h.sim.Now() - kT0;
          if (fresh.ok()) {
            EXPECT_EQ(memo->winner, *fresh) << "t=" << h.sim.Now() - kT0;
          }
        }
      }
      return current;
    };

    while (h.sim.Now() < kT0 + kChurn + 2 * kMillisPerSecond) {
      h.sim.Step();
      check();
    }
    EXPECT_GT(elections.size(), 50u);  // not vacuous
    // Quiet for two seconds: every follower's tick has caught up.
    int followers = 0;
    for (int n = 0; n < kNodes; ++n) {
      for (int p = 0; p < kPartitions; ++p) {
        if (!h.fleet->node(n)->IsLeader("clicks", p) &&
            h.fleet->node(n)->fetch_election("clicks", p) != nullptr) {
          ++followers;
        }
      }
    }
    EXPECT_EQ(check(), followers);
    EXPECT_EQ(followers, kPartitions * 2);
  }
}

// Everything a fetch tick could touch that is visible from outside: every
// metric the brokers report (the registry's report without its time
// stamp) and every znode's data, version and child stamp.
std::string FleetState(FleetHarness& h) {
  std::string out = h.metrics.TextReport();
  out.erase(0, out.find('\n') + 1);
  std::vector<std::string> stack = {"/"};
  while (!stack.empty()) {
    const std::string path = stack.back();
    stack.pop_back();
    auto stat = h.zk.Stat(path);
    auto data = h.zk.GetData(path);
    EXPECT_TRUE(stat.ok() && data.ok()) << path;
    if (!stat.ok() || !data.ok()) continue;
    out += path + " data=" + *data + " version=" +
           std::to_string(stat->version) +
           " stamp=" + std::to_string(h.zk.ChildStamp(path)) + "\n";
    auto children = h.zk.GetChildren(path);
    EXPECT_TRUE(children.ok()) << path;
    if (!children.ok()) continue;
    for (const std::string& child : *children) {
      stack.push_back(path == "/" ? "/" + child : path + "/" + child);
    }
  }
  return out;
}

// A caught-up follower's fetch tick changes nothing observable; and after
// leader crashes, restarts and session expiries, every follower's memo
// resolves the node a fresh election names.
TEST(BrokerFetchTest, CaughtUpFollowerTickChangesNothing) {
  constexpr int kNodes = 3;
  constexpr int kPartitions = 2;
  constexpr int kTicks = 20;
  BrokerOptions options;
  options.num_partitions = kPartitions;
  options.replication_factor = 2;
  options.acks = kAcksAll;
  options.replica_fetch_interval_ms = 500;
  FleetHarness h(kNodes, options);
  ASSERT_TRUE(h.fleet->EnsureTopic("clicks").ok());

  // One producer per partition; a produce to a leaderless partition
  // (mid-failover) is simply retried with the same seq next time.
  std::vector<uint64_t> seqs(kPartitions, 0);
  auto produce = [&](int count) {
    for (int i = 0; i < count; ++i) {
      for (int p = 0; p < kPartitions; ++p) {
        if (h.ProduceOne("clicks", p, "host" + std::to_string(p),
                         seqs[p] + 1, "p")
                .ok()) {
          ++seqs[p];
        }
      }
    }
  };
  // Checks that every live follower's current memo names (and resolves)
  // what a fresh election names. Returns how many were current.
  auto check_memos = [&]() -> int {
    int followers = 0;
    for (int n = 0; n < kNodes; ++n) {
      BrokerNode* node = h.fleet->node(n);
      for (int p = 0; p < kPartitions; ++p) {
        const BrokerNode::ElectionMemo* memo =
            node->fetch_election("clicks", p);
        if (!node->alive() || memo == nullptr ||
            node->IsLeader("clicks", p)) {
          continue;
        }
        // A follower's own catch-up publishes its end offset, so its memo
        // is current only from its next tick on.
        if (memo->stamp !=
            h.zk.ChildStamp(CandidatesPath("dc1", "clicks", p))) {
          continue;
        }
        ++followers;
        auto fresh = ElectLeader(h.zk, "dc1", "clicks", p);
        EXPECT_TRUE(fresh.ok());
        if (!fresh.ok()) continue;
        EXPECT_EQ(memo->winner, *fresh);
        EXPECT_EQ(memo->leader,
                  *fresh == node->id() ? nullptr : h.fleet->FindNode(*fresh));
      }
    }
    return followers;
  };

  // Quiesce: records on every partition, a consumer trim, and two seconds
  // of ticks for the followers to mirror and trim.
  produce(5);
  for (int p = 0; p < kPartitions; ++p) {
    h.Leader("clicks", p)->NoteConsumedTo("clicks", p, 2);
  }
  h.sim.RunUntil(h.sim.Now() + 2 * kMillisPerSecond);
  EXPECT_EQ(check_memos(), kPartitions);

  const std::string before = FleetState(h);
  const uint64_t events = h.sim.EventsProcessed();
  h.sim.RunUntil(h.sim.Now() + kTicks * options.replica_fetch_interval_ms);
  EXPECT_GE(h.sim.EventsProcessed() - events,
            static_cast<uint64_t>(kTicks * kNodes));
  EXPECT_EQ(FleetState(h), before);
  EXPECT_EQ(check_memos(), kPartitions);

  // Churn between ticks; each step ends with two ticks of every node.
  // Roles are looked up when a step runs: an expiry can hand partition 0
  // to its follower.
  auto leader = [&] { return h.Leader("clicks", 0); };
  auto follower = [&]() -> BrokerNode* {
    for (int n = 0; n < kNodes; ++n) {
      BrokerNode* node = h.fleet->node(n);
      if (node->alive() && node != leader() &&
          node->fetch_election("clicks", 0) != nullptr) {
        return node;
      }
    }
    return nullptr;
  };
  BrokerNode* down = nullptr;
  auto crash = [&](BrokerNode* node) {
    ASSERT_NE(node, nullptr);
    down = node;
    node->Crash();
  };
  auto restart = [&] {
    ASSERT_NE(down, nullptr);
    ASSERT_TRUE(down->Start().ok());
  };
  auto expire = [&](BrokerNode* node) {
    ASSERT_NE(node, nullptr);
    ASSERT_TRUE(node->ExpireSession().ok());
  };
  const std::vector<std::function<void()>> steps = {
      [&] { crash(leader()); },
      [&] { produce(2); },
      restart,
      [&] { produce(3); },
      [&] { expire(leader()); },
      [&] { produce(2); },
      [&] { crash(follower()); },
      [&] { produce(2); },
      restart,
      // The leader's link to the restarted follower's replica is stale.
      [&] { produce(2); },
      [&] { expire(follower()); },
      [&] { produce(1); },
  };
  int compared = 0;
  for (size_t i = 0; i < steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    steps[i]();
    h.sim.RunUntil(h.sim.Now() + 2 * options.replica_fetch_interval_ms);
    compared += check_memos();
  }
  EXPECT_GT(compared, 0);

  // Caught up again: ticks are once more no-ops.
  h.sim.RunUntil(h.sim.Now() + 2 * kMillisPerSecond);
  EXPECT_EQ(check_memos(), kPartitions);
  const std::string settled = FleetState(h);
  h.sim.RunUntil(h.sim.Now() + kTicks * options.replica_fetch_interval_ms);
  EXPECT_EQ(FleetState(h), settled);
}

// --- Daemon linger: a broker flush produces only ripe categories ---

scribe::ScribeDaemon MakeBrokerDaemon(FleetHarness* h,
                                      const scribe::ScribeOptions& options) {
  return scribe::ScribeDaemon(
      &h->sim, &h->zk, "dc1", "host0",
      [](const std::string&) -> scribe::Aggregator* { return nullptr; },
      Rng(1), options, &h->metrics);
}

TEST(DaemonLingerTest, ProducesNothingUntilTheOldestEntryLingers) {
  FleetHarness h(2, BrokerOptions{});
  const scribe::ScribeOptions options;
  const TimeMs linger = options.daemon_linger_ms;
  ASSERT_GE(linger, 5 * kMillisPerSecond);
  scribe::ScribeDaemon daemon = MakeBrokerDaemon(&h, options);
  daemon.SetBrokerFleet(h.fleet.get());
  auto produced = [&] { return h.fleet->TotalStats().entries_produced; };

  // A minute into the hour, far from its close. "clicks" starts queueing
  // now, "search" three ticks later; both keep queueing every tick.
  const TimeMs first = kT0 + kMillisPerMinute;
  for (TimeMs t = 0; t < linger; t += kMillisPerSecond) {
    h.sim.RunUntil(first + t);
    daemon.Log("clicks", "c" + std::to_string(t));
    if (t >= 3 * kMillisPerSecond) {
      daemon.Log("search", "s" + std::to_string(t));
    }
    daemon.Flush();
    ASSERT_EQ(produced(), 0u) << "at +" << t << " ms";
  }
  const size_t clicks = static_cast<size_t>(linger / kMillisPerSecond);
  ASSERT_EQ(daemon.QueuedEntries(), clicks + clicks - 3);

  // The first tick at which clicks' oldest entry is linger old ships all
  // of clicks, the entries logged since included; search still lingers.
  h.sim.RunUntil(first + linger);
  daemon.Flush();
  EXPECT_EQ(produced(), clicks);
  EXPECT_EQ(daemon.QueuedEntries(), clicks - 3);
  h.sim.RunUntil(first + linger + 2 * kMillisPerSecond);
  daemon.Flush();
  EXPECT_EQ(produced(), clicks);
  h.sim.RunUntil(first + linger + 3 * kMillisPerSecond);
  daemon.Flush();
  EXPECT_EQ(produced(), clicks + clicks - 3);
  EXPECT_EQ(daemon.QueuedEntries(), 0u);
}

TEST(DaemonLingerTest, SizeTriggerFiresAtMaxBatchBytes) {
  FleetHarness h(2, BrokerOptions{});
  scribe::ScribeOptions options;
  options.daemon_max_batch_bytes = 1000;
  scribe::ScribeDaemon daemon = MakeBrokerDaemon(&h, options);
  daemon.SetBrokerFleet(h.fleet.get());
  auto produced = [&] { return h.fleet->TotalStats().entries_produced; };
  const std::string payload(100, 'p');
  h.sim.RunUntil(kT0 + kMillisPerMinute);

  // 900 queued bytes: young and under the batch size.
  for (int i = 0; i < 9; ++i) daemon.Log("clicks", payload);
  daemon.Flush();
  EXPECT_EQ(produced(), 0u);
  // The tenth entry reaches 1000 bytes: the same tick's flush ships them.
  daemon.Log("clicks", payload);
  daemon.Flush();
  EXPECT_EQ(produced(), 10u);
  EXPECT_EQ(h.fleet->TotalStats().produce_calls, 1u);

  // 1500 bytes: one batch of 1000 goes; the 500 left are under the batch
  // size and young, so they linger.
  for (int i = 0; i < 15; ++i) daemon.Log("clicks", payload);
  daemon.Flush();
  EXPECT_EQ(produced(), 20u);
  daemon.Flush();
  EXPECT_EQ(produced(), 20u);
  EXPECT_EQ(daemon.QueuedEntries(), 5u);
}

// Drop-oldest removes a category's oldest entry; its age then counts from
// the entry that is oldest now.
TEST(DaemonLingerTest, DropOldestRestartsTheCategorysLinger) {
  FleetHarness h(2, BrokerOptions{});
  scribe::ScribeOptions options;
  options.daemon_buffer_limit_bytes = 300;
  const TimeMs linger = options.daemon_linger_ms;
  scribe::ScribeDaemon daemon = MakeBrokerDaemon(&h, options);
  daemon.SetBrokerFleet(h.fleet.get());
  auto produced = [&] { return h.fleet->TotalStats().entries_produced; };
  const std::string payload(100, 'p');

  const TimeMs first = kT0 + kMillisPerMinute;
  h.sim.RunUntil(first);
  daemon.Log("clicks", payload);
  h.sim.RunUntil(first + linger / 2);
  for (int i = 0; i < 3; ++i) daemon.Log("clicks", payload);
  ASSERT_EQ(daemon.stats().entries_dropped, 1u);

  h.sim.RunUntil(first + linger);
  daemon.Flush();
  EXPECT_EQ(produced(), 0u);
  h.sim.RunUntil(first + linger / 2 + linger);
  daemon.Flush();
  EXPECT_EQ(produced(), 3u);
  EXPECT_EQ(daemon.QueuedEntries(), 0u);
}

// What a broker cluster lands: each warehouse hour directory's messages,
// sorted (a multiset), and a digest of every part's path and bytes.
struct LandedHours {
  std::map<std::string, std::vector<std::string>> by_hour;
  Fnv1a64 bytes_digest;
  uint64_t logged = 0;
  uint64_t produce_calls = 0;
};

// Three hours of two-category traffic through 4 daemons and 2 brokers:
// a steady trickle, and a burst in the last 15 s of every hour, which is
// where a lingering entry could be appended an hour later than at linger 0.
LandedHours RunHourlyBrokerCluster(const scribe::ScribeOptions& options) {
  Simulator sim(kT0);
  BrokerOptions broker_options;
  broker_options.num_partitions = 2;
  scribe::ScribeCluster cluster(&sim, BrokerTopology(2, broker_options),
                                options, scribe::LogMoverOptions{},
                                /*seed=*/11);
  EXPECT_TRUE(cluster.Start().ok());
  LandedHours out;
  auto log_at = [&](TimeMs t) {
    const uint64_t n = out.logged++;
    sim.At(t, [&cluster, n] {
      cluster.Log(0, scribe::LogEntry{n % 2 == 0 ? "clicks" : "search",
                                      "m" + std::to_string(n)});
    });
  };
  for (int hour = 0; hour < 3; ++hour) {
    const TimeMs begin = kT0 + hour * kMillisPerHour;
    const TimeMs close = begin + kMillisPerHour;
    for (TimeMs t = begin + 350; t < close - 15 * kMillisPerSecond;
         t += kMillisPerSecond) {
      log_at(t);
      log_at(t);
    }
    for (TimeMs t = close - 15 * kMillisPerSecond; t < close; t += 370) {
      log_at(t);
    }
  }
  sim.RunUntil(kT0 + 4 * kMillisPerHour + 20 * kMillisPerMinute);
  EXPECT_TRUE(obs::DeliveryAudit(&cluster).AssertQuiescent().ok());
  out.produce_calls = cluster.fleet(0)->TotalStats().produce_calls;

  hdfs::MiniHdfs* wh = cluster.warehouse();
  auto files = wh->ListRecursive("/logs");
  EXPECT_TRUE(files.ok());
  if (!files.ok()) return out;
  for (const auto& f : *files) {
    if (f.is_dir) continue;
    auto body = wh->ReadFile(f.path);
    EXPECT_TRUE(body.ok()) << f.path;
    if (!body.ok()) continue;
    out.bytes_digest.Mix(f.path);
    out.bytes_digest.Mix(*body);
    auto raw = Lz::Decompress(*body);
    EXPECT_TRUE(raw.ok()) << f.path;
    if (!raw.ok()) continue;
    auto messages = scribe::UnframeMessages(*raw);
    EXPECT_TRUE(messages.ok()) << f.path;
    if (!messages.ok()) continue;
    auto& hour = out.by_hour[f.path.substr(0, f.path.rfind('/'))];
    hour.insert(hour.end(), messages->begin(), messages->end());
  }
  for (auto& [dir, messages] : out.by_hour) {
    std::sort(messages.begin(), messages.end());
  }
  return out;
}

TEST(DaemonLingerTest, HourCloseLandsEveryEntryInItsLingerZeroHour) {
  scribe::ScribeOptions eager;
  eager.daemon_linger_ms = 0;
  const LandedHours at_zero = RunHourlyBrokerCluster(eager);
  const LandedHours lingering = RunHourlyBrokerCluster(scribe::ScribeOptions{});

  // Three hours of two categories, plus the bursts' spill into hour 3.
  EXPECT_EQ(at_zero.by_hour.size(), 8u);
  EXPECT_EQ(lingering.by_hour, at_zero.by_hour);
  size_t landed = 0;
  for (const auto& [dir, messages] : lingering.by_hour) {
    landed += messages.size();
  }
  EXPECT_EQ(landed, lingering.logged);
  // Lingering batches: several times fewer produces for the same entries.
  EXPECT_LT(3 * lingering.produce_calls, at_zero.produce_calls);
}

// At linger 0 the daemon produces exactly what it did before linger
// existed: the warehouse bytes of this run are pinned from that code.
TEST(DaemonLingerTest, LingerZeroWarehouseBytesArePinned) {
  scribe::ScribeOptions eager;
  eager.daemon_linger_ms = 0;
  EXPECT_EQ(RunHourlyBrokerCluster(eager).bytes_digest.value(),
            537583035641785284ull);
}

}  // namespace
}  // namespace unilog::broker
