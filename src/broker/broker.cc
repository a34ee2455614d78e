#include "broker/broker.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/fnv.h"

namespace unilog::broker {

uint64_t StableHash(const std::string& s) { return Fnv1a64::OfBytes(s); }

std::string BrokerRootPath(const std::string& dc) { return "/broker/" + dc; }

std::string BrokersPath(const std::string& dc) {
  return BrokerRootPath(dc) + "/brokers";
}

std::string TopicsPath(const std::string& dc) {
  return BrokerRootPath(dc) + "/topics";
}

std::string PartitionPath(const std::string& dc, const std::string& category,
                          int partition) {
  return TopicsPath(dc) + "/" + category + "/" + std::to_string(partition);
}

std::string CandidatesPath(const std::string& dc, const std::string& category,
                           int partition) {
  return PartitionPath(dc, category, partition) + "/candidates";
}

std::string StatePath(const std::string& dc, const std::string& category,
                      int partition) {
  return PartitionPath(dc, category, partition) + "/state";
}

std::string ConsumersPath(const std::string& dc) {
  return BrokerRootPath(dc) + "/consumers";
}

std::string OffsetPath(const std::string& dc, const std::string& group,
                       const std::string& category, int partition) {
  return ConsumersPath(dc) + "/" + group + "/" + category + "-" +
         std::to_string(partition);
}

namespace {

uint64_t ParseUint(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

/// Creates `path` (and any missing ancestors) as persistent znodes.
Status EnsurePersistent(zk::ZooKeeper* zk, zk::SessionId session,
                        const std::string& path) {
  size_t pos = 1;
  while (pos != std::string::npos && pos < path.size()) {
    size_t next = path.find('/', pos);
    std::string prefix =
        next == std::string::npos ? path : path.substr(0, next);
    if (!zk->Exists(prefix)) {
      auto created =
          zk->Create(session, prefix, "", zk::CreateMode::kPersistent);
      if (!created.ok() && !created.status().IsAlreadyExists()) {
        return created.status();
      }
    }
    pos = next == std::string::npos ? next : next + 1;
  }
  return Status::OK();
}

// The election of ElectLeader over the candidate znodes under `dir`,
// reading names and data in place. Writes the winner's id into `*winner`
// (reusing its buffer) and returns true, or returns false when no
// candidate is registered.
bool ElectAmong(const zk::ZooKeeper& zk, std::string_view dir,
                std::string* winner) {
  bool found = false;
  std::string_view best_id;
  std::string_view best_seq;
  uint64_t best_end = 0;
  Status visited = zk.VisitChildren(
      dir, [&](std::string_view name, const std::string& data) {
        // Candidate names are "m-<id>-<10-digit zk sequence>".
        if (name.size() < 13 || !name.starts_with("m-")) return;
        std::string_view seq = name.substr(name.size() - 10);
        uint64_t end = ParseUint(data);
        // Winner: most complete log first (no acked data sacrificed when a
        // caught-up replica is available), then earliest registration.
        if (!found || end > best_end || (end == best_end && seq < best_seq)) {
          found = true;
          best_id = name.substr(2, name.size() - 13);
          best_seq = seq;
          best_end = end;
        }
      });
  if (!visited.ok() || !found) return false;
  winner->assign(best_id);
  return true;
}

}  // namespace

Result<std::string> ElectLeader(const zk::ZooKeeper& zk, const std::string& dc,
                                const std::string& category, int partition) {
  std::string winner;
  if (!ElectAmong(zk, CandidatesPath(dc, category, partition), &winner)) {
    return Status::NotFound("no candidates for " + category + "/" +
                            std::to_string(partition));
  }
  return winner;
}

uint64_t MaxCommittedOffset(const zk::ZooKeeper& zk, const std::string& dc,
                            const std::string& category, int partition) {
  uint64_t best = 0;
  auto groups = zk.GetChildren(ConsumersPath(dc));
  if (!groups.ok()) return 0;
  for (const std::string& group : *groups) {
    if (auto data = zk.GetData(OffsetPath(dc, group, category, partition));
        data.ok()) {
      best = std::max(best, ParseUint(*data));
    }
  }
  return best;
}

std::vector<std::string> BrokerNode::AssignedReplicas(
    const std::vector<std::string>& fleet_ids, const std::string& category,
    int partition, int replication) {
  std::vector<std::string> out;
  if (fleet_ids.empty()) return out;
  size_t n = fleet_ids.size();
  size_t count = std::min<size_t>(std::max(replication, 1), n);
  size_t start =
      (StableHash(category) + static_cast<uint64_t>(partition)) % n;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(fleet_ids[(start + i) % n]);
  }
  return out;
}

BrokerNode::BrokerNode(Simulator* sim, zk::ZooKeeper* zk,
                       std::string datacenter, std::string id,
                       std::vector<std::string> fleet_ids, Resolver resolve,
                       BrokerOptions options, obs::MetricsRegistry* metrics)
    : sim_(sim),
      zk_(zk),
      dc_(std::move(datacenter)),
      id_(std::move(id)),
      fleet_ids_(std::move(fleet_ids)),
      resolve_(std::move(resolve)),
      options_(options) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>(sim_);
    metrics = owned_metrics_.get();
  }
  obs::Labels labels{{"dc", dc_}, {"id", id_}};
  produced_ = metrics->GetCounter("broker.entries_produced", labels);
  bytes_produced_ = metrics->GetCounter("broker.bytes_produced", labels);
  wire_bytes_produced_ =
      metrics->GetCounter("broker.wire_bytes_produced", labels);
  duplicates_ = metrics->GetCounter("broker.entries_duplicate", labels);
  replicated_ = metrics->GetCounter("broker.entries_replicated", labels);
  wire_bytes_replicated_ =
      metrics->GetCounter("broker.wire_bytes_replicated", labels);
  replication_rounds_ =
      metrics->GetCounter("broker.replication_rounds", labels);
  produce_calls_ = metrics->GetCounter("broker.produce_calls", labels);
  lost_failover_ = metrics->GetCounter("broker.entries_lost_failover", labels);
  elections_ = metrics->GetCounter("broker.elections_won", labels);
  throttled_backpressure_ =
      metrics->GetCounter("broker.throttled_backpressure", labels);
  throttled_rate_ = metrics->GetCounter("broker.throttled_rate", labels);
  insufficient_replicas_ =
      metrics->GetCounter("broker.insufficient_replicas", labels);
  not_leader_rejects_ =
      metrics->GetCounter("broker.not_leader_rejects", labels);
  log_entries_gauge_ = metrics->GetGauge("broker.log_entries", labels);
  log_bytes_gauge_ = metrics->GetGauge("broker.log_bytes", labels);
  retained_compressed_gauge_ =
      metrics->GetGauge("broker.retained_bytes_compressed", labels);
  retained_uncompressed_gauge_ =
      metrics->GetGauge("broker.retained_bytes_uncompressed", labels);
  partitions_led_gauge_ = metrics->GetGauge("broker.partitions_led", labels);
  produce_batch_entries_ =
      metrics->GetHistogram("broker.produce_batch_entries", labels);
}

Status BrokerNode::Start() {
  if (alive_) return Status::OK();
  alive_ = true;
  ++incarnation_;
  session_ = zk_->CreateSession();
  UNILOG_RETURN_NOT_OK(EnsurePersistent(zk_, session_, BrokersPath(dc_)));
  UNILOG_RETURN_NOT_OK(EnsurePersistent(zk_, session_, TopicsPath(dc_)));
  UNILOG_RETURN_NOT_OK(EnsurePersistent(zk_, session_, ConsumersPath(dc_)));
  auto reg = zk_->Create(session_, BrokersPath(dc_) + "/" + id_, id_,
                         zk::CreateMode::kEphemeral);
  if (!reg.ok()) return reg.status();

  tokens_.Reset(options_.node_service_bytes_per_sec, sim_->Now());

  // Re-adopt assigned replicas of every topic that already exists (restart
  // after a crash starts from an empty log and catches up via fetch).
  if (auto topics = zk_->GetChildren(TopicsPath(dc_)); topics.ok()) {
    for (const std::string& category : *topics) {
      int nparts = options_.num_partitions;
      if (auto data = zk_->GetData(TopicsPath(dc_) + "/" + category);
          data.ok() && !data->empty()) {
        nparts = static_cast<int>(ParseUint(*data));
      }
      for (int p = 0; p < nparts; ++p) {
        auto assigned = AssignedReplicas(fleet_ids_, category, p,
                                         options_.replication_factor);
        if (std::find(assigned.begin(), assigned.end(), id_) !=
            assigned.end()) {
          UNILOG_RETURN_NOT_OK(AdoptReplica(category, p));
        }
      }
    }
  }
  StartReplicaFetch();
  UpdateGauges();
  return Status::OK();
}

void BrokerNode::Crash() {
  if (!alive_) return;
  alive_ = false;
  ++incarnation_;
  // Session expiry deletes the candidate znodes; peers' children watches
  // fire (deferred) and re-elect without this node.
  zk_->CloseSession(session_);
  session_ = 0;
  replicas_.clear();  // in-memory logs die with the process
  UpdateGauges();
}

Status BrokerNode::ExpireSession() {
  if (!alive_) return Status::FailedPrecondition("broker down: " + id_);
  ++incarnation_;  // stale watch callbacks from the old session no-op
  zk_->CloseSession(session_);
  session_ = zk_->CreateSession();
  auto reg = zk_->Create(session_, BrokersPath(dc_) + "/" + id_, id_,
                         zk::CreateMode::kEphemeral);
  if (!reg.ok()) return reg.status();
  // Logs survive expiry; re-register every candidate first so the
  // recompute pass (and peers' deferred watch cascades) see the full
  // candidate set, then re-run elections.
  for (auto& [key, r] : replicas_) {
    r.leader = false;
    r.candidate_path.clear();
    UNILOG_RETURN_NOT_OK(RegisterCandidate(&r));
    WatchCandidates(key.first, key.second);
  }
  for (auto& [key, r] : replicas_) {
    RecomputeLeader(key.first, key.second);
  }
  StartReplicaFetch();
  UpdateGauges();
  return Status::OK();
}

Status BrokerNode::AdoptReplica(const std::string& category, int partition) {
  if (!alive_) return Status::FailedPrecondition("broker down: " + id_);
  Replica& r = replicas_[PartitionKey{category, partition}];
  if (r.candidates_dir.empty()) {
    r.category = category;
    r.partition = partition;
    r.candidates_dir = CandidatesPath(dc_, category, partition);
    r.state_path = StatePath(dc_, category, partition);
    for (const std::string& peer_id : AssignedReplicas(
             fleet_ids_, category, partition, options_.replication_factor)) {
      if (peer_id != id_ && resolve_) r.peers.push_back({resolve_(peer_id)});
    }
  }
  if (!r.candidate_path.empty() && zk_->Exists(r.candidate_path)) {
    return Status::OK();  // already campaigning
  }
  UNILOG_RETURN_NOT_OK(RegisterCandidate(&r));
  WatchCandidates(category, partition);
  RecomputeLeader(category, partition);
  return Status::OK();
}

bool BrokerNode::IsLeader(const std::string& category, int partition) const {
  const Replica* r = FindReplica(category, partition);
  return alive_ && r != nullptr && r->leader;
}

BrokerNode::Replica* BrokerNode::FindReplica(const std::string& category,
                                             int partition) {
  auto it =
      replicas_.find(std::pair<std::string_view, int>(category, partition));
  return it == replicas_.end() ? nullptr : &it->second;
}

const BrokerNode::Replica* BrokerNode::FindReplica(const std::string& category,
                                                   int partition) const {
  auto it =
      replicas_.find(std::pair<std::string_view, int>(category, partition));
  return it == replicas_.end() ? nullptr : &it->second;
}

BrokerNode::Replica* BrokerNode::LinkedReplica(PeerLink* link,
                                               const Replica& r) const {
  BrokerNode* node = link->node;
  if (node == nullptr || !node->alive_) return nullptr;
  if (link->replica == nullptr || link->incarnation != node->incarnation_) {
    link->incarnation = node->incarnation_;
    link->replica = node->FindReplica(r.category, r.partition);
  }
  return link->replica;
}

uint64_t BrokerNode::AckedWatermark(const Replica& r) const {
  // Everything below the lowest appended-but-unacknowledged offset is
  // acknowledged; with no unacked entries the whole log is.
  uint64_t w = r.log.end_offset();
  for (const auto& [producer, offset] : r.unacked_min_offset) {
    w = std::min(w, offset);
  }
  return w;
}

Status BrokerNode::RegisterCandidate(Replica* r) {
  UNILOG_RETURN_NOT_OK(EnsurePersistent(zk_, session_, r->candidates_dir));
  auto created =
      zk_->Create(session_, r->candidates_dir + "/m-" + id_ + "-",
                  std::to_string(r->log.end_offset()),
                  zk::CreateMode::kEphemeralSequential);
  if (!created.ok()) return created.status();
  r->candidate_path = *created;
  return Status::OK();
}

void BrokerNode::PublishEndOffset(Replica* r) {
  if (r->candidate_path.empty()) return;
  // Best effort: the election tie-break prefers the most complete log, so
  // candidates advertise their end offset as znode data.
  zk_->SetData(session_, r->candidate_path,
               std::to_string(r->log.end_offset()));
}

void BrokerNode::WatchCandidates(std::string category, int partition) {
  // Build the path before constructing the lambda: the capture moves
  // `category` out, and argument evaluation order would otherwise be free to
  // run the move first and arm the watch on a mangled path.
  std::string dir = CandidatesPath(dc_, category, partition);
  zk_->WatchChildren(
      dir,
      [this, category = std::move(category), partition,
       inc = incarnation_](zk::WatchEvent, const std::string&) {
        if (inc != incarnation_ || !alive_) return;
        // Re-arm before acting (the coalescing in zk makes this safe even
        // when several membership changes land in one delivery window).
        WatchCandidates(category, partition);
        RecomputeLeader(category, partition);
      });
}

void BrokerNode::RecomputeLeader(const std::string& category, int partition) {
  Replica* r = FindReplica(category, partition);
  if (r == nullptr || !alive_) return;
  auto winner = ElectLeader(*zk_, dc_, category, partition);
  bool won = winner.ok() && *winner == id_;
  if (won && !r->leader) {
    BecomeLeader(r);
  } else if (!won && r->leader) {
    r->leader = false;
    UpdateGauges();
  }
}

void BrokerNode::BecomeLeader(Replica* r) {
  uint64_t w_state = 0;
  if (auto data = zk_->GetData(r->state_path); data.ok()) {
    w_state = ParseUint(*data);
  }
  uint64_t local_end = r->log.end_offset();
  if (w_state > local_end) {
    // The acknowledged watermark is ahead of everything this replica holds:
    // those entries died with the old leader before replication reached us.
    // Count them lost (minus any prefix consumers already banked) and open
    // an explicit gap so offsets stay monotone.
    uint64_t committed =
        MaxCommittedOffset(*zk_, dc_, r->category, r->partition);
    uint64_t have = std::max(local_end, committed);
    if (w_state > have) lost_failover_->Increment(w_state - have);
    r->log.AdvanceTo(w_state);
  }
  // Rebuild the idempotence tables from the retained log: records below
  // the watermark were acknowledged, records above it were appended but
  // never acknowledged (their producers will resend).
  r->producer_appended =
      r->log.ProducerHighWatermarks(std::numeric_limits<uint64_t>::max());
  r->producer_acked = r->log.ProducerHighWatermarks(w_state);
  r->unacked_min_offset.clear();
  for (const Batch& b : r->log.batches()) {
    if (b.end_offset() <= w_state) continue;
    // The batch's unacked suffix starts where the watermark cuts it.
    uint64_t off = std::max(b.base_offset, w_state);
    auto [it, inserted] = r->unacked_min_offset.emplace(b.producer, off);
    if (!inserted) it->second = std::min(it->second, off);
  }
  r->leader = true;
  elections_->Increment();
  zk_->SetData(session_, r->state_path, std::to_string(AckedWatermark(*r)));
  PublishEndOffset(r);
  UpdateGauges();
}

void BrokerNode::MirrorBatches(Replica* r, std::vector<Batch>* batches) {
  uint64_t mirrored = 0;
  for (Batch& b : *batches) {
    // Ranges already covered locally are resend overlap; AppendMirror
    // rejects them and keeps the mirror gap-honest.
    const uint32_t count = b.count;
    if (r->log.AppendMirror(std::move(b))) mirrored += count;
  }
  if (mirrored > 0) {
    replicated_->Increment(mirrored);
    PublishEndOffset(r);
    UpdateGauges();
  }
}

uint64_t BrokerNode::MirrorEndOffset(const std::string& category,
                                     int partition) const {
  if (!alive_) return std::numeric_limits<uint64_t>::max();
  const Replica* r = FindReplica(category, partition);
  if (r == nullptr) return std::numeric_limits<uint64_t>::max();
  return r->log.end_offset();
}

void BrokerNode::ReplicateToPeers(Replica* r) {
  const uint64_t end = r->log.end_offset();
  for (PeerLink& link : r->peers) {
    Replica* peer = LinkedReplica(&link, *r);
    if (peer == nullptr || peer->log.end_offset() >= end) continue;
    // Group commit: one round carries every batch the peer is missing —
    // the batch just appended plus whatever queued up while the peer
    // lagged — as shared-blob metadata, no payload copies.
    r->log.ReadInto(peer->log.end_offset(), end,
                    std::numeric_limits<TimeMs>::max(), &replication_window_);
    if (replication_window_.batches.empty()) continue;
    link.node->MirrorBatches(peer, &replication_window_.batches);
    replication_rounds_->Increment();
    wire_bytes_replicated_->Increment(replication_window_.stored_bytes);
  }
}

Status BrokerNode::AdmitProduce(Replica* r, uint64_t wire_cost) {
  if (options_.acks == kAcksAll) {
    int live = 1;  // the leader itself
    for (const PeerLink& link : r->peers) {
      if (link.node != nullptr && link.node->alive_) ++live;
    }
    if (live < options_.min_insync_replicas) {
      insufficient_replicas_->Increment();
      return Status::Unavailable("not enough in-sync replicas for " +
                                 r->category);
    }
  }
  if (options_.node_service_bytes_per_sec > 0) {
    if (!tokens_.Admits(wire_cost, sim_->Now())) {
      throttled_rate_->Increment();
      return Status::Unavailable("produce rate throttled on " + id_);
    }
  }
  if (r->log.byte_size() >= options_.partition_inflight_limit_bytes) {
    // Bounded in-flight window: backpressure instead of drop-oldest. The
    // producer keeps its queue and retries after backoff; consumers
    // draining the partition (triggering trims) reopen the window. The
    // window is measured in uncompressed terms, whatever the wire size.
    throttled_backpressure_->Increment();
    return Status::Unavailable("partition in-flight window full");
  }
  if (options_.node_service_bytes_per_sec > 0) tokens_.Charge(wire_cost);
  return Status::OK();
}

Status BrokerNode::ProduceBatch(const std::string& category, int partition,
                                const std::string& producer,
                                ProduceBatchRequest req, ProduceAck* ack) {
  if (ack != nullptr) *ack = ProduceAck{};
  if (!alive_) return Status::Unavailable("broker down: " + id_);
  Replica* r = FindReplica(category, partition);
  if (r == nullptr || !r->leader) {
    not_leader_rejects_->Increment();
    return Status::FailedPrecondition(id_ + " does not lead " + category +
                                      "/" + std::to_string(partition));
  }
  if (req.count == 0) return Status::OK();
  if (req.record_sizes.size() != req.count) {
    return Status::InvalidArgument("produce batch record_sizes/count mismatch");
  }

  const uint64_t cost = req.body.size();  // wire bytes: the compressed blob
  UNILOG_RETURN_NOT_OK(AdmitProduce(r, cost));

  uint64_t acked_wm = 0;
  if (auto it = r->producer_acked.find(producer);
      it != r->producer_acked.end()) {
    acked_wm = it->second;
  }
  uint64_t appended_wm = acked_wm;
  if (auto it = r->producer_appended.find(producer);
      it != r->producer_appended.end()) {
    appended_wm = std::max(appended_wm, it->second);
  }

  // Seqs are dense in [first_seq, last], so dedup is pure arithmetic
  // against the watermarks — no per-record work, no decompression.
  const uint64_t last = req.first_seq + req.count - 1;
  // Resends at or below the appended watermark are duplicates (already in
  // the log; those above the acked watermark just get acknowledged now).
  const uint64_t skip_n =
      appended_wm >= req.first_seq
          ? std::min<uint64_t>(appended_wm - req.first_seq + 1, req.count)
          : 0;
  const uint64_t dups = skip_n;
  const uint64_t ack_lo = std::max(req.first_seq, acked_wm + 1);
  const uint64_t newly_acked = last >= ack_lo ? last - ack_lo + 1 : 0;
  uint64_t newly_acked_bytes = 0;
  for (uint32_t i = 0; i < req.count; ++i) {
    if (req.first_seq + i >= ack_lo) newly_acked_bytes += req.record_sizes[i];
  }

  uint64_t first_appended_offset = 0;
  bool any_appended = false;
  if (skip_n < req.count) {
    // Head-trim the overlap in metadata and append the tail as ONE batch
    // entry; the blob stays whole and opaque (skip_frames records the trim
    // for decode time).
    Batch b;
    b.count = req.count - static_cast<uint32_t>(skip_n);
    b.producer = producer;
    b.first_seq = req.first_seq + skip_n;
    b.appended_at = sim_->Now();
    b.skip_frames = static_cast<uint32_t>(skip_n);
    b.compressed = req.compressed;
    // The request's size index and body become the stored entry's own.
    if (skip_n == 0) {
      b.record_sizes = std::move(req.record_sizes);
    } else {
      b.record_sizes.assign(req.record_sizes.begin() + skip_n,
                            req.record_sizes.end());
    }
    for (uint32_t sz : b.record_sizes) b.payload_bytes += sz;
    b.body = std::make_shared<const std::string>(std::move(req.body));
    const Batch& stored = r->log.AppendBatch(std::move(b));
    any_appended = true;
    first_appended_offset = stored.base_offset;
  }
  if (last > appended_wm) r->producer_appended[producer] = last;

  if (options_.acks == kAcksAll && any_appended) ReplicateToPeers(r);
  PublishEndOffset(r);
  produce_batch_entries_->Observe(static_cast<double>(req.count));
  wire_bytes_produced_->Increment(cost);

  if (inject_ack_loss_once_) {
    inject_ack_loss_once_ = false;
    // The append (and replication) happened but the ack never reaches the
    // producer. Pin the acked watermark below the new records so consumers
    // cannot see them until the resend resolves their fate.
    if (any_appended) {
      auto [it, inserted] =
          r->unacked_min_offset.emplace(producer, first_appended_offset);
      if (!inserted) it->second = std::min(it->second, first_appended_offset);
    }
    zk_->SetData(session_, r->state_path, std::to_string(AckedWatermark(*r)));
    UpdateGauges();
    return Status::Unavailable("ack lost (injected)");
  }

  r->producer_acked[producer] = std::max(acked_wm, last);
  r->unacked_min_offset.erase(producer);
  produced_->Increment(newly_acked);
  bytes_produced_->Increment(newly_acked_bytes);
  duplicates_->Increment(dups);
  produce_calls_->Increment();
  zk_->SetData(session_, r->state_path, std::to_string(AckedWatermark(*r)));
  UpdateGauges();
  if (ack != nullptr) {
    ack->accepted = newly_acked;
    ack->deduped = dups;
  }
  return Status::OK();
}

Result<PartitionLog::ReadResult> BrokerNode::ConsumerFetch(
    const std::string& category, int partition, uint64_t from,
    TimeMs ts_limit) const {
  if (!alive_) return Status::Unavailable("broker down: " + id_);
  const Replica* r = FindReplica(category, partition);
  if (r == nullptr || !r->leader) {
    return Status::FailedPrecondition(id_ + " does not lead " + category +
                                      "/" + std::to_string(partition));
  }
  return r->log.ReadFrom(from, AckedWatermark(*r), ts_limit);
}

Result<PartitionLog::ReadResult> BrokerNode::ReplicaFetch(
    const std::string& category, int partition, uint64_t from,
    uint64_t* trim_to) const {
  if (!alive_) return Status::Unavailable("broker down: " + id_);
  const Replica* r = FindReplica(category, partition);
  if (r == nullptr) {
    return Status::NotFound(id_ + " hosts no replica of " + category);
  }
  if (trim_to != nullptr) *trim_to = r->log.begin_offset();
  return r->log.ReadFrom(from, r->log.end_offset(),
                         std::numeric_limits<TimeMs>::max());
}

void BrokerNode::NoteConsumedTo(const std::string& category, int partition,
                                uint64_t offset) {
  Replica* r = FindReplica(category, partition);
  if (r == nullptr || !r->leader) return;
  r->log.TrimTo(offset);
  UpdateGauges();
}

void BrokerNode::StartReplicaFetch() {
  if (options_.replica_fetch_interval_ms <= 0) return;
  sim_->Every(options_.replica_fetch_interval_ms, [this, inc = incarnation_] {
    if (inc != incarnation_ || !alive_) return false;
    FetchFromLeaders();
    return true;
  });
}

void BrokerNode::FetchFromLeaders() {
  bool fetched_any = false;
  for (auto& [key, r] : replicas_) {
    if (r.leader) continue;
    ElectionMemo& memo = r.fetch_election;
    if (memo.read_at != zk_->LastStamp()) {
      memo.read_at = zk_->LastStamp();
      const uint64_t stamp = zk_->ChildStamp(r.candidates_dir);
      if (stamp != memo.stamp) {
        memo.stamp = stamp;
        memo.elected = ElectAmong(*zk_, r.candidates_dir, &memo.winner);
        memo.leader = memo.elected && memo.winner != id_ && resolve_
                          ? resolve_(memo.winner)
                          : nullptr;
        r.fetch_leader = {memo.leader};
      }
    }
    const Replica* from = LinkedReplica(&r.fetch_leader, r);
    if (from == nullptr) continue;
    // Caught up: nothing to mirror and nothing to trim, so the tick
    // changes nothing and reads nothing.
    if (from->log.end_offset() == r.log.end_offset() &&
        r.log.begin_offset() >= from->log.begin_offset()) {
      continue;
    }
    fetched_any = true;
    uint64_t trim_to = 0;
    auto fetched = memo.leader->ReplicaFetch(key.first, key.second,
                                             r.log.end_offset(), &trim_to);
    if (!fetched.ok()) continue;
    uint64_t mirrored = 0;
    uint64_t mirrored_wire = 0;
    for (Batch& b : fetched->batches) {
      uint64_t wire = b.stored_bytes();
      if (r.log.AppendMirror(std::move(b))) {
        mirrored += r.log.batches().back().count;
        mirrored_wire += wire;
      }
    }
    r.log.TrimTo(trim_to);
    if (mirrored > 0) {
      replicated_->Increment(mirrored);
      wire_bytes_replicated_->Increment(mirrored_wire);
      PublishEndOffset(&r);
    }
  }
  // Every other path that changes a log updates the gauges itself, so a
  // tick that fetched nothing leaves them as they are.
  if (fetched_any) UpdateGauges();
}

void BrokerNode::UpdateGauges() {
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t stored = 0;
  int64_t led = 0;
  for (const auto& [key, r] : replicas_) {
    entries += r.log.entry_count();
    bytes += r.log.byte_size();
    stored += r.log.stored_byte_size();
    if (r.leader) ++led;
  }
  log_entries_gauge_->Set(static_cast<int64_t>(entries));
  log_bytes_gauge_->Set(static_cast<int64_t>(bytes));
  retained_compressed_gauge_->Set(static_cast<int64_t>(stored));
  retained_uncompressed_gauge_->Set(static_cast<int64_t>(bytes));
  partitions_led_gauge_->Set(led);
}

const BrokerNode::ElectionMemo* BrokerNode::fetch_election(
    const std::string& category, int partition) const {
  const Replica* r = FindReplica(category, partition);
  return r == nullptr ? nullptr : &r->fetch_election;
}

BrokerNodeStats BrokerNode::stats() const {
  BrokerNodeStats s;
  s.entries_produced = produced_->value();
  s.bytes_produced = bytes_produced_->value();
  s.wire_bytes_produced = wire_bytes_produced_->value();
  s.entries_duplicate = duplicates_->value();
  s.entries_replicated = replicated_->value();
  s.wire_bytes_replicated = wire_bytes_replicated_->value();
  s.replication_rounds = replication_rounds_->value();
  s.produce_calls = produce_calls_->value();
  s.entries_lost_failover = lost_failover_->value();
  s.elections_won = elections_->value();
  s.throttled_backpressure = throttled_backpressure_->value();
  s.throttled_rate = throttled_rate_->value();
  s.insufficient_replicas = insufficient_replicas_->value();
  s.not_leader_rejects = not_leader_rejects_->value();
  s.log_entries = static_cast<uint64_t>(log_entries_gauge_->value());
  s.log_bytes = static_cast<uint64_t>(log_bytes_gauge_->value());
  s.retained_bytes_compressed =
      static_cast<uint64_t>(retained_compressed_gauge_->value());
  s.retained_bytes_uncompressed =
      static_cast<uint64_t>(retained_uncompressed_gauge_->value());
  s.partitions_led = static_cast<uint64_t>(partitions_led_gauge_->value());
  return s;
}

}  // namespace unilog::broker
