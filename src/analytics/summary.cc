#include "analytics/summary.h"

#include <set>
#include <sstream>

#include "common/utf8.h"

namespace unilog::analytics {

const char* DurationBucketLabel(DurationBucket b) {
  switch (b) {
    case DurationBucket::kZero:
      return "0s";
    case DurationBucket::kUnder10s:
      return "1-10s";
    case DurationBucket::kUnder1m:
      return "11-60s";
    case DurationBucket::kUnder5m:
      return "1-5m";
    case DurationBucket::kUnder30m:
      return "5-30m";
    case DurationBucket::kOver30m:
      return ">30m";
  }
  return "?";
}

DurationBucket BucketFor(int32_t duration_seconds) {
  if (duration_seconds <= 0) return DurationBucket::kZero;
  if (duration_seconds <= 10) return DurationBucket::kUnder10s;
  if (duration_seconds <= 60) return DurationBucket::kUnder1m;
  if (duration_seconds <= 300) return DurationBucket::kUnder5m;
  if (duration_seconds <= 1800) return DurationBucket::kUnder30m;
  return DurationBucket::kOver30m;
}

namespace {

/// Partial accumulation over one chunk of sequences. Counters and an
/// integer-valued duration sum only, so merging chunk partials in chunk
/// order gives the same summary at any chunk count.
struct SummaryPartial {
  uint64_t sessions = 0;
  uint64_t events = 0;
  std::set<int64_t> users;
  double total_duration = 0;
  std::map<std::string, uint64_t> by_client;
  std::map<std::string, uint64_t> by_bucket;
};

Status SummarizeOne(const sessions::SessionSequence& seq,
                    const sessions::EventDictionary& dict,
                    SummaryPartial* out) {
  ++out->sessions;
  out->events += seq.EventCount();
  out->users.insert(seq.user_id);
  out->total_duration += seq.duration_seconds;
  ++out->by_bucket[DurationBucketLabel(BucketFor(seq.duration_seconds))];
  // Client type: the client component of the first event's name.
  if (!seq.sequence.empty()) {
    size_t pos = 0;
    uint32_t cp;
    UNILOG_RETURN_NOT_OK(DecodeOneUtf8(seq.sequence, &pos, &cp));
    UNILOG_ASSIGN_OR_RETURN(std::string name, dict.NameFor(cp));
    size_t colon = name.find(':');
    ++out->by_client[name.substr(0, colon)];
  }
  return Status::OK();
}

}  // namespace

Result<DailySummary> Summarize(
    const std::vector<sessions::SessionSequence>& seqs,
    const sessions::EventDictionary& dict, exec::Executor* exec) {
  // ParallelForChunked gives each chunk a private partial; the first
  // failing index (by position) wins, as in a front-to-back scan.
  exec = exec::OrInline(exec);
  std::vector<SummaryPartial> partials(exec->ChunksFor(seqs.size()));
  std::vector<Status> chunk_status(partials.size(), Status::OK());
  exec->ParallelForChunked(
      "summarize", seqs.size(), [&](size_t chunk, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          Status s = SummarizeOne(seqs[i], dict, &partials[chunk]);
          if (!s.ok()) {
            chunk_status[chunk] = std::move(s);
            return;
          }
        }
      });
  for (auto& s : chunk_status) {
    UNILOG_RETURN_NOT_OK(std::move(s));
  }
  SummaryPartial total;
  for (auto& p : partials) {
    total.sessions += p.sessions;
    total.events += p.events;
    total.users.insert(p.users.begin(), p.users.end());
    total.total_duration += p.total_duration;
    for (const auto& [k, n] : p.by_client) total.by_client[k] += n;
    for (const auto& [k, n] : p.by_bucket) total.by_bucket[k] += n;
  }
  DailySummary out;
  out.sessions = total.sessions;
  out.events = total.events;
  out.distinct_users = total.users.size();
  out.sessions_by_client = std::move(total.by_client);
  out.sessions_by_duration_bucket = std::move(total.by_bucket);
  if (out.sessions > 0) {
    out.avg_events_per_session =
        static_cast<double>(out.events) / static_cast<double>(out.sessions);
    out.avg_duration_seconds =
        total.total_duration / static_cast<double>(out.sessions);
  }
  return out;
}

std::string DailySummary::ToString() const {
  std::ostringstream os;
  os << "sessions=" << sessions << " events=" << events
     << " users=" << distinct_users << " avg_events/session="
     << avg_events_per_session << " avg_duration_s=" << avg_duration_seconds
     << "\n  by_client:";
  for (const auto& [client, n] : sessions_by_client) {
    os << " " << client << "=" << n;
  }
  os << "\n  by_duration:";
  for (const auto& [bucket, n] : sessions_by_duration_bucket) {
    os << " " << bucket << "=" << n;
  }
  return os.str();
}

}  // namespace unilog::analytics
