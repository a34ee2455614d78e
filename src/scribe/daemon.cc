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
  sim_->Every(options_.daemon_flush_interval_ms, [this] {
    Flush();
    return true;
  });
}

void ScribeDaemon::Log(LogEntry entry) {
  const uint64_t bytes = entry.message.size();
  queue_bytes_ += bytes;
  auto it = categories_.find(entry.category);
  if (it == categories_.end()) {
    it = categories_.emplace(entry.category, Category{}).first;
  }
  Category* cat = &it->second;
  const uint64_t seq = ++cat->next_seq;
  if (cat->queued++ == 0) cat->oldest = sim_->Now();
  cat->queued_bytes += bytes;
  queue_.push_back(Queued{std::move(entry), seq, sim_->Now(), cat});
  entries_logged_->Increment();
  // Bounded local buffer: drop the oldest entries past the limit (counted
  // — E1 reports these as the overload-loss channel).
  while (queue_bytes_ > options_.daemon_buffer_limit_bytes &&
         !queue_.empty()) {
    PopFront();
    entries_dropped_->Increment();
  }
  queue_depth_->Set(static_cast<int64_t>(queue_.size()));
}

void ScribeDaemon::PopFront() {
  const Queued& q = queue_.front();
  queue_bytes_ -= q.entry.message.size();
  q.category->queued_bytes -= q.entry.message.size();
  --q.category->queued;
  queue_.pop_front();
  oldest_stale_ = true;
}

void ScribeDaemon::Log(const std::string& category, std::string message) {
  Log(LogEntry{category, std::move(message)});
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
  for (size_t i = 0; i < take; ++i) PopFront();
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

Result<size_t> ScribeDaemon::ProduceCategoryBatch(const std::string& name,
                                                  Category* cat) {
  size_t take = 0;
  uint64_t bytes = 0;
  for (size_t i : cat->pending) {
    bytes += queue_[i].entry.message.size();
    if (options_.daemon_max_batch_bytes > 0 && take > 0 &&
        bytes > options_.daemon_max_batch_bytes) {
      break;
    }
    ++take;
  }
  broker::ProduceBatchRequest req;
  req.first_seq = queue_[cat->pending[0]].seq;
  req.count = static_cast<uint32_t>(take);
  req.record_sizes.reserve(take);
  frame_.clear();
  for (size_t k = 0; k < take; ++k) {
    const Queued& q = queue_[cat->pending[k]];
    broker::AppendBatchFrame(&frame_, q.logged_at, q.entry.message);
    req.record_sizes.push_back(static_cast<uint32_t>(q.entry.message.size()));
  }
  req.compressed = true;
  // The once-per-path compression: the blob stays opaque through append,
  // replication, and fetch, and is decoded only at warehouse landing. A
  // block outgrows its input only by a few bytes of framing, so one
  // reservation holds it.
  req.body.reserve(frame_.size() + frame_.size() / 16 + 16);
  Lz::Pooled().CompressTo(frame_, &req.body);
  broker::ProduceAck ack;
  UNILOG_RETURN_NOT_OK(cat->leader->ProduceBatch(name, cat->partition, host_,
                                                 std::move(req), &ack));
  for (size_t k = 0; k < take; ++k) {
    Queued& q = queue_[cat->pending[k]];
    q.acked = true;
    cat->queued_bytes -= q.entry.message.size();
  }
  // The acked entries are the category's oldest `take`, so its next entry
  // in the queue is its new oldest.
  cat->queued -= take;
  if (take < cat->pending.size()) {
    cat->oldest = queue_[cat->pending[take]].logged_at;
  }
  return take;
}

size_t ScribeDaemon::MarkRipe(TimeMs now) {
  if (oldest_stale_) {
    // Back to front, so each category ends on its first queued entry.
    for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
      it->category->oldest = it->logged_at;
    }
    oldest_stale_ = false;
  }
  const TimeMs linger = options_.daemon_linger_ms;
  const uint64_t batch_bytes = options_.daemon_max_batch_bytes;
  // The mover files a record under the hour of its leader append, so in
  // the hour's last linger window everything goes: no entry is appended
  // in a later hour than at linger 0.
  const bool hour_closing = TruncateToHour(now + linger) != TruncateToHour(now);
  size_t ripe = 0;
  for (auto& [name, cat] : categories_) {
    cat.ripe = cat.queued > 0 &&
               (hour_closing || now - cat.oldest >= linger ||
                (batch_bytes > 0 && cat.queued_bytes >= batch_bytes));
    ripe += cat.ripe;
  }
  return ripe;
}

bool ScribeDaemon::FlushToBroker() {
  if (MarkRipe(sim_->Now()) == 0) return true;
  // Group the ripe categories' entries, preserving queue order within each
  // group (offsets within a partition then mirror Log() order).
  for (size_t i = 0; i < queue_.size(); ++i) {
    Category* cat = queue_[i].category;
    if (cat->ripe) cat->pending.push_back(i);
  }

  bool all_ok = true;
  uint64_t sent = 0;
  for (auto& [name, cat] : categories_) {
    if (cat.pending.empty()) continue;
    if (cat.partition < 0) cat.partition = fleet_->PartitionFor(host_, name);
    broker::BrokerNode* leader = cat.leader;
    if (leader == nullptr || !leader->alive() ||
        !leader->IsLeader(name, cat.partition)) {
      leader = DiscoverLeader(name, cat.partition);
      if (leader == nullptr) {
        all_ok = false;
        cat.pending.clear();
        continue;
      }
      cat.leader = leader;
    }
    Result<size_t> taken = ProduceCategoryBatch(name, &cat);
    cat.pending.clear();
    if (taken.ok()) {
      sent += *taken;
      continue;
    }
    all_ok = false;
    send_failures_->Increment();
    const Status& st = taken.status();
    if (st.IsFailedPrecondition() || !leader->alive()) {
      // Wrong/dead leader: rediscover next flush.
      cat.leader = nullptr;
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
    // and order so a retry is dedupable downstream.
    for (const Queued& q : queue_) {
      if (q.acked) queue_bytes_ -= q.entry.message.size();
    }
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [](const Queued& q) { return q.acked; }),
                 queue_.end());
  }
  return all_ok;
}

}  // namespace unilog::scribe
