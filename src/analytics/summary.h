#ifndef UNILOG_ANALYTICS_SUMMARY_H_
#define UNILOG_ANALYTICS_SUMMARY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/executor.h"
#include "sessions/dictionary.h"
#include "sessions/session_sequence.h"

namespace unilog::analytics {

/// Session-duration buckets for the BirdBrain drill-down ("by (bucketed)
/// session duration", §5.1).
enum class DurationBucket : int {
  kZero = 0,       // single-event sessions
  kUnder10s = 1,
  kUnder1m = 2,
  kUnder5m = 3,
  kUnder30m = 4,
  kOver30m = 5,
};

const char* DurationBucketLabel(DurationBucket b);
DurationBucket BucketFor(int32_t duration_seconds);

/// The §5.1 daily summary that feeds the BirdBrain dashboard: "the number
/// of user sessions daily... with the ability to drill down by client type
/// and by (bucketed) session duration".
struct DailySummary {
  uint64_t sessions = 0;
  uint64_t events = 0;
  uint64_t distinct_users = 0;
  double avg_events_per_session = 0;
  double avg_duration_seconds = 0;
  std::map<std::string, uint64_t> sessions_by_client;
  std::map<std::string, uint64_t> sessions_by_duration_bucket;

  /// Dashboard-style rendering.
  std::string ToString() const;
};

/// Computes the daily summary from session sequences. The client type is
/// recovered from the first event's name (its client component) via the
/// dictionary — names alone suffice, which is the point of §4.
///
/// Sequences are scanned in chunks (one when `exec` runs inline) whose
/// partial summaries merge in chunk order. Every accumulator is either a
/// counter or an integer-valued duration sum (exact in double), so the
/// result is identical at any thread count.
Result<DailySummary> Summarize(
    const std::vector<sessions::SessionSequence>& seqs,
    const sessions::EventDictionary& dict, exec::Executor* exec = nullptr);

}  // namespace unilog::analytics

#endif  // UNILOG_ANALYTICS_SUMMARY_H_
