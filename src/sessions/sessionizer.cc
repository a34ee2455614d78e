#include "sessions/sessionizer.h"

#include <algorithm>

namespace unilog::sessions {

void Sessionizer::Add(const events::ClientEvent& event) {
  GroupKey key{event.user_id, event.session_id};
  groups_[key].push_back(
      PendingEvent{event.timestamp, event.event_name, event.ip});
  ++event_count_;
}

namespace {

/// Sorts one group's events by timestamp and splits at inactivity gaps,
/// appending the resulting sessions to *out.
template <typename Key, typename Pending>
void BuildGroup(const Key& key, const std::vector<Pending>& pending,
                TimeMs inactivity_gap_ms, std::vector<Session>* out) {
  // Sort a copy by timestamp (stable so same-timestamp events keep
  // arrival order deterministically).
  std::vector<const Pending*> ordered;
  ordered.reserve(pending.size());
  for (const auto& ev : pending) ordered.push_back(&ev);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Pending* a, const Pending* b) {
                     return a->timestamp < b->timestamp;
                   });

  Session current;
  bool open = false;
  for (const Pending* ev : ordered) {
    if (open && ev->timestamp - current.end > inactivity_gap_ms) {
      out->push_back(current);
      open = false;
    }
    if (!open) {
      current = Session{};
      current.user_id = key.user_id;
      current.session_id = key.session_id;
      current.ip = ev->ip;
      current.start = ev->timestamp;
      current.end = ev->timestamp;
      open = true;
    }
    current.end = ev->timestamp;
    current.event_names.push_back(ev->event_name);
  }
  if (open) out->push_back(current);
}

}  // namespace

std::vector<Session> Sessionizer::Build(exec::Executor* exec) const {
  exec = exec::OrInline(exec);
  std::vector<const std::pair<const GroupKey, std::vector<PendingEvent>>*>
      group_ptrs;
  group_ptrs.reserve(groups_.size());
  for (const auto& entry : groups_) group_ptrs.push_back(&entry);
  std::vector<std::vector<Session>> chunks(exec->ChunksFor(group_ptrs.size()));
  exec->ParallelForChunked(
      "sessionize", group_ptrs.size(),
      [&](size_t chunk, size_t begin, size_t end) {
        for (size_t g = begin; g < end; ++g) {
          BuildGroup(group_ptrs[g]->first, group_ptrs[g]->second,
                     options_.inactivity_gap_ms, &chunks[chunk]);
        }
      });
  return exec::ConcatChunks(&chunks);
}

}  // namespace unilog::sessions
