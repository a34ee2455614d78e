#ifndef UNILOG_ANALYTICS_UDFS_H_
#define UNILOG_ANALYTICS_UDFS_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "events/event_name.h"
#include "exec/executor.h"
#include "sessions/dictionary.h"
#include "sessions/session_sequence.h"

namespace unilog::analytics {

/// The CountClientEvents UDF of §5.2: initialized with an '$EVENTS'
/// pattern which is "automatically expanded to include all matching events
/// (via the dictionary that provides the event name to unicode code point
/// mapping)"; evaluation is then pure string manipulation over the
/// session-sequence unicode string.
class CountClientEvents {
 public:
  CountClientEvents(const sessions::EventDictionary& dict,
                    const events::EventPattern& pattern);

  /// Number of matching events in the session (the SUM variant).
  uint64_t Count(const sessions::SessionSequence& seq) const;
  uint64_t Count(std::string_view sequence_utf8) const;

  /// Whether the session contains at least one matching event (the COUNT
  /// variant: "number of user sessions that contain at least one
  /// instance").
  bool ContainsAny(const sessions::SessionSequence& seq) const;

  /// Day-level SUM over all sessions. Chunk partial sums merge in chunk
  /// order — integer counters, so the total is identical at any thread
  /// count. Count() is const
  /// and reentrant, as UDFs must be under the exec engine.
  uint64_t TotalCount(const std::vector<sessions::SessionSequence>& seqs,
                      exec::Executor* exec = nullptr) const;

  /// How many code points the pattern expanded to.
  size_t target_count() const { return targets_.size(); }

 private:
  std::unordered_set<uint32_t> targets_;
};

/// The ClientEventsFunnel UDF of §5.3: an ordered list of stage events;
/// evaluating a session yields how many stages it completed *in order*
/// (intervening events are permitted, as with the regular-expression match
/// the paper describes).
class Funnel {
 public:
  /// Fails if any stage event is not in the dictionary.
  static Result<Funnel> Make(const sessions::EventDictionary& dict,
                             const std::vector<std::string>& stage_events);

  size_t num_stages() const { return stages_.size(); }

  /// Number of consecutive stages completed from the start (0 = never
  /// entered the funnel).
  size_t StagesCompleted(const sessions::SessionSequence& seq) const;
  size_t StagesCompleted(std::string_view sequence_utf8) const;

  /// Aggregates over a day: result[i] = sessions that completed stage i
  /// (the "(0, 490123) (1, 297071) ..." output of §5.3). Per-chunk stage
  /// vectors sum element-wise — exact at any thread count.
  std::vector<uint64_t> StageCounts(
      const std::vector<sessions::SessionSequence>& seqs,
      exec::Executor* exec = nullptr) const;

  /// Per-stage abandonment rate: fraction of sessions that reached stage i
  /// but not stage i+1. Size = num_stages-1. Stages with zero reach give 0.
  std::vector<double> AbandonmentRates(
      const std::vector<sessions::SessionSequence>& seqs) const;

 private:
  std::vector<uint32_t> stages_;
};

/// A click-through/follow-through rate report (§4.1's canonical
/// common-case query).
struct RateReport {
  uint64_t impressions = 0;
  uint64_t actions = 0;  // clicks or follows
  double rate = 0.0;     // actions / impressions (0 when no impressions)
  uint64_t sessions_with_impression = 0;
  uint64_t sessions_with_action = 0;
};

/// Computes CTR/FTR-style rates over session sequences: total matching
/// impressions, total matching actions, and the ratio. Integer counters,
/// so the chunked scan is exact at any thread count.
RateReport ComputeRate(const std::vector<sessions::SessionSequence>& seqs,
                       const sessions::EventDictionary& dict,
                       const events::EventPattern& impression_pattern,
                       const events::EventPattern& action_pattern,
                       exec::Executor* exec = nullptr);

}  // namespace unilog::analytics

#endif  // UNILOG_ANALYTICS_UDFS_H_
