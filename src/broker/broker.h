#ifndef UNILOG_BROKER_BROKER_H_
#define UNILOG_BROKER_BROKER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "broker/partition_log.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "zk/zookeeper.h"

namespace unilog::broker {

/// Producer acknowledgement levels, as in Kafka.
inline constexpr int kAcksLeader = 1;  // leader append suffices
inline constexpr int kAcksAll = -1;    // every live assigned replica

struct BrokerOptions {
  int num_partitions = 4;
  int replication_factor = 2;
  /// kAcksAll or kAcksLeader. Only kAcksAll is tested for, so any other
  /// value, 0 included, acts as leader acks: there is no fire-and-forget.
  int acks = kAcksLeader;

  /// acks=all produces are rejected (Unavailable) when fewer than this
  /// many assigned replicas (leader included) are alive to take the write
  /// — the zero-acknowledged-loss guarantee: an acked entry exists on
  /// min_insync_replicas copies before the producer dequeues it.
  int min_insync_replicas = 1;

  /// Bounded in-flight window: once a leader's retained (unconsumed) log
  /// for a partition reaches this many bytes, produces are throttled with
  /// Unavailable instead of dropping oldest. The daemon keeps the entries
  /// queued and backs off — backpressure, not silent loss.
  uint64_t partition_inflight_limit_bytes = 64ull * 1024 * 1024;

  /// Follower catch-up cadence. Below acks=all, replication is
  /// asynchronous: followers periodically fetch from their leader.
  TimeMs replica_fetch_interval_ms = 500;

  /// Sustained per-node produce service rate in bytes/sec (token bucket
  /// with one second of burst); 0 = unlimited. Models the NIC/disk bound
  /// the Kafka paper's sustained-rate benchmarks saturate.
  uint64_t node_service_bytes_per_sec = 0;
};

struct ProduceAck {
  uint64_t accepted = 0;  // acknowledged for the first time by this call
  uint64_t deduped = 0;   // resends of already-acknowledged entries
};

/// A daemon-framed produce batch: `count` records with dense seqs
/// [first_seq, first_seq + count), framed into `body` (one frame per
/// record: varint logged_at, varint payload_len, payload) and compressed
/// once at the producer when `compressed`. The broker stores, replicates,
/// and serves the body opaquely; `record_sizes` carries the per-record
/// uncompressed payload sizes the broker needs for dedup trims and
/// uncompressed-byte accounting without ever touching the blob. Seqs are
/// per-producer, assigned at Log() time, and start at 1.
struct ProduceBatchRequest {
  uint64_t first_seq = 0;
  uint32_t count = 0;
  std::string body;
  bool compressed = true;
  std::vector<uint32_t> record_sizes;
};

/// FNV-1a. Partition assignment must be identical across runs and builds
/// (std::hash is not portable), so it is part of the deterministic
/// contract.
uint64_t StableHash(const std::string& s);

// zk layout, rooted per datacenter:
//   /broker/<dc>/brokers/<id>                      ephemeral, data=<id>
//   /broker/<dc>/topics/<category>                 data=<num_partitions>
//   /broker/<dc>/topics/<category>/<p>/candidates/m-<id>-<seq>
//                                 ephemeral-sequential, data=<log end offset>
//   /broker/<dc>/topics/<category>/<p>/state       data=<acked watermark>
//   /broker/<dc>/consumers/<group>/<category>-<p>  data=<committed offset>
std::string BrokerRootPath(const std::string& dc);
std::string BrokersPath(const std::string& dc);
std::string TopicsPath(const std::string& dc);
std::string PartitionPath(const std::string& dc, const std::string& category,
                          int partition);
std::string CandidatesPath(const std::string& dc, const std::string& category,
                           int partition);
std::string StatePath(const std::string& dc, const std::string& category,
                      int partition);
std::string ConsumersPath(const std::string& dc);
std::string OffsetPath(const std::string& dc, const std::string& group,
                       const std::string& category, int partition);

/// Election: reads the candidate znodes of (category, partition) and picks
/// the winner — highest replicated end offset (the candidate's data), ties
/// broken by lowest sequence suffix (earliest registration). Returns
/// NotFound when no candidates are registered.
Result<std::string> ElectLeader(const zk::ZooKeeper& zk, const std::string& dc,
                                const std::string& category, int partition);

/// Highest committed offset for (category, partition) across all consumer
/// groups; 0 when none.
uint64_t MaxCommittedOffset(const zk::ZooKeeper& zk, const std::string& dc,
                            const std::string& category, int partition);

struct BrokerNodeStats {
  uint64_t entries_produced = 0;   // acknowledged to producers
  uint64_t bytes_produced = 0;     // uncompressed payload bytes acked
  uint64_t wire_bytes_produced = 0;  // bytes as shipped (compressed if batched)
  uint64_t entries_duplicate = 0;  // dedup hits on (producer, seq)
  uint64_t entries_replicated = 0;
  uint64_t wire_bytes_replicated = 0;
  uint64_t replication_rounds = 0;  // group-commit rounds (leader side)
  uint64_t produce_calls = 0;       // successful ProduceBatch calls
  uint64_t entries_lost_failover = 0;
  uint64_t elections_won = 0;
  uint64_t throttled_backpressure = 0;
  uint64_t throttled_rate = 0;
  uint64_t insufficient_replicas = 0;
  uint64_t not_leader_rejects = 0;
  uint64_t log_entries = 0;  // retained, across led+followed partitions
  uint64_t log_bytes = 0;    // retained uncompressed payload bytes
  uint64_t retained_bytes_compressed = 0;    // retained blob bytes
  uint64_t retained_bytes_uncompressed = 0;  // == log_bytes
  uint64_t partitions_led = 0;
};

/// One broker process: hosts replicas of the partitions deterministically
/// assigned to it, campaigns for their leadership through zk
/// ephemeral-sequential candidate znodes, serves produces (with
/// idempotent dedup, ack levels, and backpressure) for partitions it
/// leads, and mirrors partitions it follows.
class BrokerNode {
 public:
  /// Looks up a peer broker by id; the fleet wires this to itself.
  using Resolver = std::function<BrokerNode*(const std::string& id)>;

  BrokerNode(Simulator* sim, zk::ZooKeeper* zk, std::string datacenter,
             std::string id, std::vector<std::string> fleet_ids,
             Resolver resolve, BrokerOptions options,
             obs::MetricsRegistry* metrics = nullptr);

  BrokerNode(const BrokerNode&) = delete;
  BrokerNode& operator=(const BrokerNode&) = delete;

  /// Deterministic replica assignment: `replication` distinct nodes from
  /// `fleet_ids`, rotated by StableHash(category) + partition so load
  /// spreads without coordination.
  static std::vector<std::string> AssignedReplicas(
      const std::vector<std::string>& fleet_ids, const std::string& category,
      int partition, int replication);

  /// Registers in zk and (re-)adopts every assigned replica of every
  /// existing topic. Idempotent; also used to restart after Crash().
  Status Start();

  /// Hard failure: session closed (ephemerals vanish, watches fire) and
  /// every in-memory log wiped. Unreplicated acked entries die here and
  /// are charged to `entries_lost_failover` by whoever wins the election.
  void Crash();

  /// zk session expiry without process death: the old session's ephemerals
  /// vanish mid-election, and the node re-registers under a new session
  /// with its logs intact.
  Status ExpireSession();

  bool alive() const { return alive_; }
  const std::string& id() const { return id_; }

  /// Hosts (category, partition) if assigned: registers a candidate znode
  /// and joins the election. Called by the fleet on topic creation and by
  /// Start() on re-adoption.
  Status AdoptReplica(const std::string& category, int partition);

  bool IsLeader(const std::string& category, int partition) const;

  /// Leader-only produce. The framed (and normally compressed) body is
  /// appended as ONE batch entry covering the dense offset range; resends
  /// of already-acknowledged (producer, seq) entries are deduped, and a
  /// resend partially overlapping already-appended seqs is head-trimmed in
  /// metadata (never decompressed, split, or double-appended). Applies the
  /// ack level and reports acceptance. Unavailable = backpressure or not
  /// enough in-sync replicas (retry later, leadership unchanged);
  /// FailedPrecondition = wrong node (rediscover the leader). Rate-limit
  /// cost is the wire size of `body` — the throughput lever. A single
  /// record is a count-1 uncompressed batch.
  Status ProduceBatch(const std::string& category, int partition,
                      const std::string& producer, ProduceBatchRequest req,
                      ProduceAck* ack);

  /// Leader-only consumer read: acknowledged records in
  /// [from, acked watermark) appended before `ts_limit`.
  Result<PartitionLog::ReadResult> ConsumerFetch(const std::string& category,
                                                 int partition, uint64_t from,
                                                 TimeMs ts_limit) const;

  /// Replica catch-up read: everything retained from `from`, no watermark
  /// or time limit. `trim_to` reports the leader's begin offset so the
  /// follower mirrors retention.
  Result<PartitionLog::ReadResult> ReplicaFetch(const std::string& category,
                                                int partition, uint64_t from,
                                                uint64_t* trim_to) const;

  /// Offset-commit hook from the fleet: all consumer groups have committed
  /// through `offset`, so a leader may trim its retained log (whole
  /// batches only).
  void NoteConsumedTo(const std::string& category, int partition,
                      uint64_t offset);

  /// The local end offset of a hosted replica, or UINT64_MAX when this
  /// node is down or does not host (category, partition).
  uint64_t MirrorEndOffset(const std::string& category, int partition) const;

  /// Chaos hook: the next ProduceBatch appends and replicates normally but
  /// the acknowledgement is "lost" (Unavailable), leaving the producer to
  /// resend — exercises (producer, seq) idempotence.
  void InjectAckLossOnce() { inject_ack_loss_once_ = true; }

  BrokerNodeStats stats() const;

  /// What a follower replica's fetch tick last elected from its
  /// candidates directory. ElectLeader is a pure function of that
  /// directory's children, so the tick re-runs it only when the
  /// directory's zk child stamp has moved since `stamp`; otherwise this
  /// memo is exactly what it would return. The initial {0, none} is exact
  /// too: stamp 0 means the directory does not exist.
  struct ElectionMemo {
    uint64_t stamp = 0;
    /// zk's LastStamp() when `stamp` was last read; while it has not
    /// moved, neither has `stamp`, and the tick skips the lookup.
    uint64_t read_at = 0;
    bool elected = false;  // false: no candidate registered
    std::string winner;
    /// The winner's node, resolved with the election; nullptr when no
    /// candidate is registered or this node won. Nodes outlive every
    /// election, so the pointer is exact for as long as the stamp is.
    BrokerNode* leader = nullptr;
  };

  /// The fetch-tick election memo of (category, partition), or nullptr
  /// when this node hosts no replica of it.
  const ElectionMemo* fetch_election(const std::string& category,
                                     int partition) const;

 private:
  struct Replica;

  /// A peer node and its replica of the same partition. The replica
  /// pointer is only good while the peer's incarnation equals
  /// `incarnation`: Crash() clears the peer's replicas, and a restart
  /// adopts new ones.
  struct PeerLink {
    BrokerNode* node = nullptr;
    uint64_t incarnation = 0;
    Replica* replica = nullptr;
  };

  struct Replica {
    std::string category;
    int partition = 0;
    PartitionLog log;
    bool leader = false;
    std::string candidates_dir;  // CandidatesPath() of this partition
    std::string candidate_path;  // empty = not currently registered
    std::string state_path;      // StatePath() of this partition
    // The other assigned replicas, in assignment order, and the replica
    // of the fetch tick's elected leader.
    std::vector<PeerLink> peers;
    PeerLink fetch_leader;
    ElectionMemo fetch_election;
    // Idempotence tables (leader-maintained, rebuilt on election):
    // highest seq acknowledged / appended per producer.
    std::map<std::string, uint64_t> producer_acked;
    std::map<std::string, uint64_t> producer_appended;
    // Producers with appended-but-unacknowledged entries (ack lost): the
    // lowest such offset pins the acked watermark until a resend resolves
    // it, keeping unacked records invisible to consumers.
    std::map<std::string, uint64_t> unacked_min_offset;
  };
  using PartitionKey = std::pair<std::string, int>;
  // Orders keys as std::pair does and looks them up by std::string_view,
  // so a produce or fetch finds its replica without copying the category.
  struct PartitionKeyLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      const int c = std::string_view(a.first).compare(b.first);
      return c < 0 || (c == 0 && a.second < b.second);
    }
  };

  Replica* FindReplica(const std::string& category, int partition);
  const Replica* FindReplica(const std::string& category,
                             int partition) const;
  uint64_t AckedWatermark(const Replica& r) const;
  /// Leader-side group commit: for every live peer, ships EVERYTHING the
  /// peer is missing — the just-appended batch plus any earlier batches
  /// the peer lacks — in one mirror round, so a produce's replication
  /// round also drains the queue a lagging follower built up.
  void ReplicateToPeers(Replica* r);
  /// Follower side of a replication round: appends whole batch entries
  /// (moved out of `batches`) whose range is not yet covered locally.
  /// Blobs are shared, never copied or decompressed.
  void MirrorBatches(Replica* r, std::vector<Batch>* batches);
  /// Produce admission: insync check (acks=all), token-bucket rate
  /// limit on `wire_cost`, and the bounded in-flight window (uncompressed
  /// terms). Charges tokens only on admission.
  Status AdmitProduce(Replica* r, uint64_t wire_cost);
  /// `link`'s replica of `r`'s partition, re-resolved when the linked
  /// node's incarnation has moved; nullptr when the node is down or hosts
  /// no such replica.
  Replica* LinkedReplica(PeerLink* link, const Replica& r) const;
  Status RegisterCandidate(Replica* r);
  void PublishEndOffset(Replica* r);
  void WatchCandidates(std::string category, int partition);
  void RecomputeLeader(const std::string& category, int partition);
  void BecomeLeader(Replica* r);
  /// Starts this incarnation's periodic replica fetch; the timer stops at
  /// its first tick after the incarnation moves.
  void StartReplicaFetch();
  void FetchFromLeaders();
  void UpdateGauges();

  Simulator* sim_;
  zk::ZooKeeper* zk_;
  const std::string dc_;
  const std::string id_;
  const std::vector<std::string> fleet_ids_;
  Resolver resolve_;
  const BrokerOptions options_;

  bool alive_ = false;
  zk::SessionId session_ = 0;
  // Bumped on crash/expiry/restart; deferred callbacks from a previous
  // life compare against it and turn into no-ops.
  uint64_t incarnation_ = 0;
  bool inject_ack_loss_once_ = false;

  std::map<PartitionKey, Replica, PartitionKeyLess> replicas_;
  // The window of one replication round, kept for its capacity.
  PartitionLog::ReadResult replication_window_;

  TokenBucket tokens_;

  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* produced_;
  obs::Counter* bytes_produced_;
  obs::Counter* wire_bytes_produced_;
  obs::Counter* duplicates_;
  obs::Counter* replicated_;
  obs::Counter* wire_bytes_replicated_;
  obs::Counter* replication_rounds_;
  obs::Counter* produce_calls_;
  obs::Counter* lost_failover_;
  obs::Counter* elections_;
  obs::Counter* throttled_backpressure_;
  obs::Counter* throttled_rate_;
  obs::Counter* insufficient_replicas_;
  obs::Counter* not_leader_rejects_;
  obs::Gauge* log_entries_gauge_;
  obs::Gauge* log_bytes_gauge_;
  obs::Gauge* retained_compressed_gauge_;
  obs::Gauge* retained_uncompressed_gauge_;
  obs::Gauge* partitions_led_gauge_;
  obs::Histogram* produce_batch_entries_;
};

}  // namespace unilog::broker

#endif  // UNILOG_BROKER_BROKER_H_
