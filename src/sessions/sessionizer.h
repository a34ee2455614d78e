#ifndef UNILOG_SESSIONS_SESSIONIZER_H_
#define UNILOG_SESSIONS_SESSIONIZER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sim_time.h"
#include "events/client_event.h"
#include "exec/executor.h"

namespace unilog::sessions {

/// A reconstructed user session: the ordered event names between two
/// 30-minute inactivity gaps for one (user_id, session_id) pair.
struct Session {
  int64_t user_id = 0;
  std::string session_id;
  std::string ip;
  TimeMs start = 0;
  TimeMs end = 0;
  /// Event names in timestamp order.
  std::vector<std::string> event_names;

  /// Session duration in seconds ("temporal interval between the first and
  /// last event in the session", §4.2).
  int32_t DurationSeconds() const {
    return static_cast<int32_t>((end - start) / kMillisPerSecond);
  }
};

/// Sessionization options.
struct SessionizerOptions {
  /// Inactivity gap that delimits sessions; the paper's standard 30 min.
  TimeMs inactivity_gap_ms = kSessionInactivityGapMs;
};

/// Reconstructs sessions from client events: the big group-by on
/// (user_id, session_id) followed by a timestamp sort and gap splitting
/// (§4.2). Order of Add calls does not matter — log files arrive only
/// partially time-ordered, and this handles that.
class Sessionizer {
 public:
  explicit Sessionizer(SessionizerOptions options = {}) : options_(options) {}

  /// Accumulates one event.
  void Add(const events::ClientEvent& event);

  /// Number of events accumulated.
  uint64_t event_count() const { return event_count_; }

  /// Builds all sessions: per group, sorts by timestamp and splits at
  /// inactivity gaps. Sessions are ordered by (user_id, session_id, start).
  /// Leaves the accumulated state intact (Build may be called repeatedly).
  /// The per-group sort/split runs in contiguous chunks of groups on
  /// `exec` (nullptr runs inline); chunks are concatenated in key order,
  /// so the result is byte-identical at any thread count.
  std::vector<Session> Build(exec::Executor* exec = nullptr) const;

 private:
  struct GroupKey {
    int64_t user_id;
    std::string session_id;
    bool operator<(const GroupKey& other) const {
      if (user_id != other.user_id) return user_id < other.user_id;
      return session_id < other.session_id;
    }
  };
  struct PendingEvent {
    TimeMs timestamp;
    std::string event_name;
    std::string ip;
  };

  SessionizerOptions options_;
  std::map<GroupKey, std::vector<PendingEvent>> groups_;
  uint64_t event_count_ = 0;
};

}  // namespace unilog::sessions

#endif  // UNILOG_SESSIONS_SESSIONIZER_H_
