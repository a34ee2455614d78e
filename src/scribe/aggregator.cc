#include "scribe/aggregator.h"

#include <algorithm>
#include <limits>

namespace unilog::scribe {

std::string AggregatorRegistryPath(const std::string& datacenter) {
  return "/scribe/" + datacenter + "/aggregators";
}

Aggregator::Aggregator(Simulator* sim, zk::ZooKeeper* zk,
                       hdfs::MiniHdfs* staging, std::string datacenter,
                       std::string id, ScribeOptions options,
                       obs::MetricsRegistry* metrics)
    : sim_(sim),
      zk_(zk),
      staging_(staging),
      datacenter_(std::move(datacenter)),
      id_(std::move(id)),
      options_(options) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>(sim_);
    metrics = owned_metrics_.get();
  }
  obs::Labels labels{{"dc", datacenter_}, {"id", id_}};
  entries_received_ = metrics->GetCounter("agg.entries_received", labels);
  bytes_received_ = metrics->GetCounter("agg.bytes_received", labels);
  entries_staged_ = metrics->GetCounter("agg.entries_staged", labels);
  files_written_ = metrics->GetCounter("agg.files_written", labels);
  bytes_written_ = metrics->GetCounter("agg.bytes_written", labels);
  hdfs_write_failures_ =
      metrics->GetCounter("agg.hdfs_write_failures", labels);
  entries_lost_in_crash_ =
      metrics->GetCounter("agg.entries_lost_in_crash", labels);
  entries_dropped_overflow_ =
      metrics->GetCounter("agg.entries_dropped_overflow", labels);
  receive_throttled_ = metrics->GetCounter("agg.receive_throttled", labels);
  buffered_entries_gauge_ = metrics->GetGauge("agg.buffered_entries", labels);
  staging_file_bytes_ =
      metrics->GetHistogram("agg.staging_file_bytes", labels);
}

AggregatorStats Aggregator::stats() const {
  AggregatorStats s;
  s.entries_received = entries_received_->value();
  s.bytes_received = bytes_received_->value();
  s.entries_staged = entries_staged_->value();
  s.files_written = files_written_->value();
  s.bytes_written = bytes_written_->value();
  s.hdfs_write_failures = hdfs_write_failures_->value();
  s.entries_lost_in_crash = entries_lost_in_crash_->value();
  s.entries_dropped_overflow = entries_dropped_overflow_->value();
  return s;
}

Status Aggregator::Start() {
  if (alive_) return Status::FailedPrecondition("already running");
  session_ = zk_->CreateSession();
  // Ensure the registry path exists (persistent), then register ourselves
  // with an ephemeral znode whose data is our "hostname".
  std::string registry = AggregatorRegistryPath(datacenter_);
  // Create parents /scribe, /scribe/<dc>, /scribe/<dc>/aggregators.
  std::string partial;
  for (const auto& part : {std::string("scribe"), datacenter_,
                           std::string("aggregators")}) {
    partial += "/" + part;
    auto st = zk_->Create(session_, partial, "", zk::CreateMode::kPersistent);
    if (!st.ok() && !st.status().IsAlreadyExists()) return st.status();
  }
  UNILOG_RETURN_NOT_OK(zk_->Create(session_, registry + "/" + id_,
                                   datacenter_ + ":" + id_,
                                   zk::CreateMode::kEphemeral)
                           .status());
  alive_ = true;
  ++incarnation_;
  receive_tokens_.Reset(options_.aggregator_service_bytes_per_sec,
                        sim_->Now());
  sim_->Every(options_.roll_interval_ms, [this, inc = incarnation_] {
    if (!alive_ || incarnation_ != inc) return false;
    RollAll();
    return true;
  });
  return Status::OK();
}

void Aggregator::Crash() {
  if (!alive_) return;
  alive_ = false;
  ++incarnation_;  // cancels pending roll timers
  // Session expiry removes the ephemeral registration and fires daemon
  // watches.
  zk_->CloseSession(session_);
  // Whatever was buffered but not rolled is gone: Scribe's loss window.
  for (const auto& [key, buffer] : buffers_) {
    entries_lost_in_crash_->Increment(buffer.messages.size());
  }
  buffers_.clear();
  buffered_bytes_ = 0;
  buffered_entries_gauge_->Set(0);
}

Status Aggregator::Receive(const std::vector<LogEntry>& entries) {
  if (!alive_) return Status::Unavailable("aggregator down: " + id_);
  if (options_.aggregator_service_bytes_per_sec > 0) {
    // Token bucket modeling the single daemon→aggregator chain's service
    // bound: the batch is accepted whole or not at all, and a rejected
    // daemon keeps its queue and backs off.
    uint64_t cost = 0;
    for (const auto& entry : entries) cost += entry.message.size();
    if (!receive_tokens_.Admits(cost, sim_->Now())) {
      receive_throttled_->Increment();
      return Status::Unavailable("aggregator throttled: " + id_);
    }
    receive_tokens_.Charge(cost);
  }
  TimeMs hour = TruncateToHour(sim_->Now() + clock_skew_ms_);
  for (const auto& entry : entries) {
    HourBuffer& buffer = buffers_[{entry.category, hour}];
    buffer.bytes += entry.message.size();
    buffered_bytes_ += entry.message.size();
    buffer.messages.push_back(entry.message);
    entries_received_->Increment();
    bytes_received_->Increment(entry.message.size());
    EnforceBufferLimit();
    // The just-appended entry can itself be evicted under an extreme
    // limit, so re-look-up instead of trusting the old reference.
    auto it = buffers_.find({entry.category, hour});
    if (it != buffers_.end() && it->second.bytes >= options_.roll_bytes) {
      if (RollBuffer(it->first, &it->second)) {
        buffers_.erase(it);
      }
    }
  }
  buffered_entries_gauge_->Set(static_cast<int64_t>(BufferedEntries()));
  return Status::OK();
}

void Aggregator::EnforceBufferLimit() {
  while (buffered_bytes_ > options_.aggregator_buffer_limit_bytes &&
         !buffers_.empty()) {
    // Oldest hour first (ties broken by category order for determinism):
    // during a prolonged outage the stalest data is sacrificed, bounding
    // the "local disk".
    auto oldest = buffers_.begin();
    for (auto it = buffers_.begin(); it != buffers_.end(); ++it) {
      if (it->first.second < oldest->first.second) oldest = it;
    }
    HourBuffer& buffer = oldest->second;
    if (buffer.messages.empty()) {
      buffers_.erase(oldest);
      continue;
    }
    uint64_t size = buffer.messages.front().size();
    buffer.bytes -= size;
    buffered_bytes_ -= size;
    buffer.messages.pop_front();
    entries_dropped_overflow_->Increment();
    if (buffer.messages.empty()) buffers_.erase(oldest);
  }
}

void Aggregator::RollAll() {
  if (!alive_) return;
  for (auto it = buffers_.begin(); it != buffers_.end();) {
    if (RollBuffer(it->first, &it->second)) {
      it = buffers_.erase(it);
    } else {
      ++it;  // HDFS outage: keep buffering ("local disk")
    }
  }
  buffered_entries_gauge_->Set(static_cast<int64_t>(BufferedEntries()));
}

bool Aggregator::RollBuffer(const BufferKey& key, HourBuffer* buffer) {
  if (buffer->messages.empty()) return true;
  const auto& [category, hour] = key;
  // Frame, then compress, into scratch this aggregator keeps: steady-state
  // rolls reuse its capacity and the compressor's table instead of
  // reallocating both per flush. A failed roll leaves its bytes there
  // until the next roll clears them. Staged bytes are read once, by the
  // log mover, so they take the single-probe parse; the bytes the
  // warehouse keeps are compressed again by the mover.
  roll_framed_.clear();
  for (const auto& m : buffer->messages) AppendFramed(&roll_framed_, m);
  compressor_.CompressTo(roll_framed_, &roll_staged_);

  // File names are id-seq. Built with std::string concatenation: ids of
  // any length stay unique (a fixed snprintf buffer used to silently
  // truncate long ids, colliding distinct aggregators onto one name).
  std::string seq = std::to_string(file_seq_);
  if (seq.size() < 6) seq.insert(0, 6 - seq.size(), '0');
  std::string path = "/staging/" + category + "/" + HourPartitionPath(hour) +
                     "/" + id_ + "-" + seq;
  Status st = staging_->WriteFile(path, roll_staged_);
  if (!st.ok()) {
    hdfs_write_failures_->Increment();
    return false;
  }
  ++file_seq_;
  entries_staged_->Increment(buffer->messages.size());
  files_written_->Increment();
  bytes_written_->Increment(roll_staged_.size());
  staging_file_bytes_->Observe(static_cast<double>(roll_staged_.size()));
  buffered_bytes_ -= buffer->bytes;
  return true;
}

TimeMs Aggregator::UnflushedWatermark() const {
  TimeMs min_hour = std::numeric_limits<TimeMs>::max();
  for (const auto& [key, buffer] : buffers_) {
    if (!buffer.messages.empty() && key.second < min_hour) {
      min_hour = key.second;
    }
  }
  return min_hour;
}

uint64_t Aggregator::BufferedEntries() const {
  uint64_t n = 0;
  for (const auto& [key, buffer] : buffers_) n += buffer.messages.size();
  return n;
}

}  // namespace unilog::scribe
