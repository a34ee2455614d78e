#include "scribe/daemon.h"

#include <algorithm>

namespace unilog::scribe {

ScribeDaemon::ScribeDaemon(Simulator* sim, zk::ZooKeeper* zk,
                           std::string datacenter, std::string host,
                           Resolver resolve, Rng rng, ScribeOptions options,
                           obs::MetricsRegistry* metrics)
    : sim_(sim),
      zk_(zk),
      datacenter_(std::move(datacenter)),
      host_(std::move(host)),
      resolve_(std::move(resolve)),
      rng_(rng),
      options_(options) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>(sim_);
    metrics = owned_metrics_.get();
  }
  obs::Labels labels{{"dc", datacenter_}, {"host", host_}};
  entries_logged_ = metrics->GetCounter("daemon.entries_logged", labels);
  entries_sent_ = metrics->GetCounter("daemon.entries_sent", labels);
  entries_dropped_ = metrics->GetCounter("daemon.entries_dropped", labels);
  send_failures_ = metrics->GetCounter("daemon.send_failures", labels);
  rediscoveries_ = metrics->GetCounter("daemon.rediscoveries", labels);
  produce_throttled_ =
      metrics->GetCounter("daemon.produce_throttled", labels);
  queue_depth_ = metrics->GetGauge("daemon.queue_entries", labels);
  batch_entries_ = metrics->GetHistogram("daemon.batch_entries", labels);
}

DaemonStats ScribeDaemon::stats() const {
  DaemonStats s;
  s.entries_logged = entries_logged_->value();
  s.entries_sent = entries_sent_->value();
  s.entries_dropped = entries_dropped_->value();
  s.send_failures = send_failures_->value();
  s.rediscoveries = rediscoveries_->value();
  s.produce_throttled = produce_throttled_->value();
  return s;
}

void ScribeDaemon::Start() {
  if (started_) return;
  started_ = true;
  ScheduleFlush();
}

void ScribeDaemon::Log(LogEntry entry) {
  queue_bytes_ += entry.message.size();
  const uint64_t seq = ++next_seq_[entry.category];
  queue_.push_back(Queued{std::move(entry), seq, sim_->Now()});
  entries_logged_->Increment();
  // Bounded local buffer: drop the oldest entries past the limit (counted
  // — E1 reports these as the overload-loss channel).
  while (queue_bytes_ > options_.daemon_buffer_limit_bytes &&
         !queue_.empty()) {
    queue_bytes_ -= queue_.front().entry.message.size();
    queue_.pop_front();
    entries_dropped_->Increment();
  }
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
}

void ScribeDaemon::Log(const std::string& category, std::string message) {
  Log(LogEntry{category, std::move(message)});
}

void ScribeDaemon::ScheduleFlush() {
  sim_->After(options_.daemon_flush_interval_ms, [this]() {
    Flush();
    ScheduleFlush();
  });
}

Aggregator* ScribeDaemon::Discover() {
  auto children = zk_->GetChildren(AggregatorRegistryPath(datacenter_));
  if (!children.ok() || children->empty()) return nullptr;
  // Uniform choice balances load across aggregators (§2: "The same
  // mechanism is used for balancing load across aggregators").
  const std::string& pick =
      (*children)[rng_.Uniform(children->size())];
  rediscoveries_->Increment();
  return resolve_(pick);
}

void ScribeDaemon::EnterBackoff() {
  ++fail_streak_;
  TimeMs base = std::max<TimeMs>(1, options_.daemon_retry_backoff_ms);
  TimeMs cap = std::max(base, options_.daemon_retry_backoff_max_ms);
  TimeMs backoff = base;
  for (int i = 1; i < fail_streak_ && backoff < cap; ++i) backoff *= 2;
  backoff = std::min(backoff, cap);
  // Deterministic jitter into [1/2, 1]× desynchronizes the daemon herd —
  // each daemon's Rng stream is its own, forked from the cluster seed.
  TimeMs jittered =
      backoff / 2 +
      static_cast<TimeMs>(rng_.Uniform(static_cast<uint64_t>(backoff / 2) + 1));
  backoff_until_ = sim_->Now() + jittered;
}

void ScribeDaemon::Flush() {
  if (queue_.empty()) return;
  if (sim_->Now() < backoff_until_) return;
  bool ok = fleet_ != nullptr ? FlushToBroker() : FlushToAggregator();
  if (ok) {
    fail_streak_ = 0;
  } else {
    EnterBackoff();
  }
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
}

bool ScribeDaemon::FlushToAggregator() {
  if (current_ == nullptr || !current_->alive()) {
    current_ = Discover();
    if (current_ == nullptr) return false;
  }

  size_t take = queue_.size();
  if (options_.daemon_max_batch_bytes > 0) {
    take = 0;
    uint64_t bytes = 0;
    for (const Queued& q : queue_) {
      bytes += q.entry.message.size();
      if (take > 0 && bytes > options_.daemon_max_batch_bytes) break;
      ++take;
    }
  }
  batch_.clear();
  batch_.reserve(take);
  for (size_t i = 0; i < take; ++i) batch_.push_back(queue_[i].entry);

  Status st = current_->Receive(batch_);
  if (!st.ok()) {
    // Aggregator died (or throttled) between discovery and send: drop the
    // connection and back off; entries remain queued for the next attempt.
    send_failures_->Increment();
    current_ = nullptr;
    return false;
  }
  entries_sent_->Increment(batch_.size());
  batch_entries_->Observe(static_cast<double>(batch_.size()));
  for (size_t i = 0; i < take; ++i) {
    queue_bytes_ -= queue_.front().entry.message.size();
    queue_.pop_front();
  }
  return true;
}

broker::BrokerNode* ScribeDaemon::DiscoverLeader(const std::string& category,
                                                 int partition) {
  rediscoveries_->Increment();
  broker::BrokerNode* leader = fleet_->FindLeader(category, partition);
  if (leader != nullptr) return leader;
  // The topic may simply not exist yet — the first producer creates it.
  if (!fleet_->EnsureTopic(category).ok()) return nullptr;
  return fleet_->FindLeader(category, partition);
}

Status ScribeDaemon::ProduceCategoryBatch(broker::BrokerNode* leader,
                                          const std::string& category,
                                          int partition,
                                          const std::vector<size_t>& indices,
                                          std::vector<size_t>* taken,
                                          broker::ProduceAck* ack) {
  BufferPool::Lease body = pool_.Acquire();
  broker::ProduceBatchRequest req;
  uint64_t bytes = 0;
  for (size_t i : indices) {
    const Queued& q = queue_[i];
    bytes += q.entry.message.size();
    if (options_.daemon_max_batch_bytes > 0 && !taken->empty() &&
        bytes > options_.daemon_max_batch_bytes) {
      break;
    }
    if (taken->empty()) req.first_seq = q.seq;
    broker::AppendBatchFrame(body.get(), q.logged_at, q.entry.message);
    req.record_sizes.push_back(
        static_cast<uint32_t>(q.entry.message.size()));
    taken->push_back(i);
  }
  req.count = static_cast<uint32_t>(taken->size());
  req.compressed = true;
  // The once-per-path compression: the blob stays opaque through append,
  // replication, and fetch, and is decoded only at warehouse landing.
  Lz::Pooled().CompressTo(*body, &req.body);
  return leader->ProduceBatch(category, partition, host_, std::move(req),
                              ack);
}

bool ScribeDaemon::FlushToBroker() {
  // Group queued entries by category, preserving queue order within each
  // group (offsets within a partition then mirror Log() order).
  std::map<std::string, std::vector<size_t>> by_category;
  for (size_t i = 0; i < queue_.size(); ++i) {
    by_category[queue_[i].entry.category].push_back(i);
  }

  std::vector<bool> acked(queue_.size(), false);
  bool all_ok = true;
  uint64_t sent = 0;
  for (const auto& [category, indices] : by_category) {
    int partition = fleet_->PartitionFor(host_, category);
    broker::BrokerNode* leader = nullptr;
    if (auto it = leader_cache_.find(category); it != leader_cache_.end()) {
      leader = it->second;
    }
    if (leader == nullptr || !leader->alive() ||
        !leader->IsLeader(category, partition)) {
      leader = DiscoverLeader(category, partition);
      if (leader == nullptr) {
        all_ok = false;
        continue;
      }
      leader_cache_[category] = leader;
    }

    std::vector<size_t> taken;
    broker::ProduceAck ack;
    Status st =
        ProduceCategoryBatch(leader, category, partition, indices, &taken, &ack);
    if (st.ok()) {
      for (size_t i : taken) acked[i] = true;
      sent += taken.size();
      continue;
    }
    all_ok = false;
    send_failures_->Increment();
    if (st.IsFailedPrecondition() || !leader->alive()) {
      // Wrong/dead leader: rediscover next flush.
      leader_cache_.erase(category);
    } else if (st.IsUnavailable()) {
      // Backpressure (in-flight window, rate, or in-sync replicas):
      // leadership is fine — keep the cache, keep the queue, back off.
      produce_throttled_->Increment();
    }
  }

  if (sent > 0) {
    entries_sent_->Increment(sent);
    batch_entries_->Observe(static_cast<double>(sent));
    // Drop exactly the acknowledged entries; unacked ones keep their seqs
    // and positions so a retry is dedupable downstream.
    std::deque<Queued> remaining;
    uint64_t remaining_bytes = 0;
    for (size_t i = 0; i < queue_.size(); ++i) {
      if (acked[i]) continue;
      remaining_bytes += queue_[i].entry.message.size();
      remaining.push_back(std::move(queue_[i]));
    }
    queue_ = std::move(remaining);
    queue_bytes_ = remaining_bytes;
  }
  return all_ok;
}

}  // namespace unilog::scribe
