#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace unilog {

void Simulator::At(TimeMs t, Callback cb) {
  if (t < now_) t = now_;
  uint32_t ref;
  if (free_callbacks_.empty()) {
    ref = static_cast<uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(cb));
  } else {
    ref = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[ref] = std::move(cb);
  }
  Push(t, ref);
}

void Simulator::Every(TimeMs period, Tick tick) {
  if (period < 0) period = 0;  // After(period) would clamp to Now()
  ++live_timers_;
  Arm(now_ + period, period, std::move(tick));
}

void Simulator::Push(TimeMs t, uint32_t ref) {
  if (segment_ != kNone && t == rearm_at_) split_ = true;
  joinable_ = kNone;
  PushEntry(Event{t, next_seq_++, ref});
}

void Simulator::PushEntry(const Event& ev) {
  std::vector<Event>& heap = ev.time - now_ < kNearHorizonMs ? near_ : far_;
  heap.push_back(ev);
  std::push_heap(heap.begin(), heap.end(), EventLater{});
}

uint32_t Simulator::Arm(TimeMs t, TimeMs period, Tick tick) {
  uint32_t c = joinable_;
  if (c == kNone || cohorts_[c].time != t || cohorts_[c].period != period) {
    if (free_cohorts_.empty()) {
      c = static_cast<uint32_t>(cohorts_.size());
      cohorts_.emplace_back();
    } else {
      c = free_cohorts_.back();
      free_cohorts_.pop_back();
    }
    cohorts_[c].time = t;
    cohorts_[c].period = period;
    Push(t, kCohortRef | c);
    joinable_ = c;
  }
  cohorts_[c].ticks.push_back(std::move(tick));
  return c;
}

uint64_t Simulator::RunNext(TimeMs limit, uint64_t budget) {
  std::vector<Event>* heap = &near_;
  if (near_.empty() ||
      (!far_.empty() && EventLater{}(near_.front(), far_.front()))) {
    heap = &far_;
  }
  if (heap->empty() || heap->front().time > limit) return 0;
  std::pop_heap(heap->begin(), heap->end(), EventLater{});
  const Event ev = heap->back();
  heap->pop_back();
  now_ = ev.time;
  if (ev.ref & kCohortRef) return FireCohort(ev, budget);
  Callback cb = std::move(callbacks_[ev.ref]);
  free_callbacks_.push_back(ev.ref);
  ++events_processed_;
  cb();
  return 1;
}

// Each member's run is the event a callback re-armed as After(period, itself)
// would be, so its re-arm comes after everything its tick scheduled. The
// survivors' re-arms stay adjacent in (time, seq) order, and so share one
// cohort, until something else is scheduled for exactly the re-arm time
// between two of them; the next survivor then takes a fresh seq after it.
uint64_t Simulator::FireCohort(const Event& ev, uint64_t budget) {
  const uint32_t c = ev.ref & ~kCohortRef;
  if (joinable_ == c) joinable_ = kNone;
  const TimeMs period = cohorts_[c].period;
  rearm_at_ = now_ + period;
  uint64_t ran = 0;
  for (; ran < budget && cohorts_[c].next < cohorts_[c].ticks.size(); ++ran) {
    Tick& tick = cohorts_[c].ticks[cohorts_[c].next++];
    ++events_processed_;
    --live_timers_;
    if (!tick()) {
      tick = nullptr;
      continue;
    }
    ++live_timers_;
    if (segment_ != kNone && !split_) {
      cohorts_[segment_].ticks.push_back(std::move(tick));
    } else {
      segment_ = Arm(rearm_at_, period, std::move(tick));
      split_ = false;
    }
  }
  segment_ = kNone;
  Cohort& cohort = cohorts_[c];
  if (cohort.next < cohort.ticks.size()) {
    PushEntry(ev);  // the members that did not run go back in place
  } else {
    cohort.ticks.clear();
    cohort.next = 0;
    free_cohorts_.push_back(c);
  }
  return ran;
}

void Simulator::Run() {
  while (RunNext(std::numeric_limits<TimeMs>::max(),
                 std::numeric_limits<uint64_t>::max()) > 0) {
  }
}

void Simulator::RunUntil(TimeMs t) {
  while (RunNext(t, std::numeric_limits<uint64_t>::max()) > 0) {
  }
  if (now_ < t) now_ = t;
}

void Simulator::Step(uint64_t n) {
  while (n > 0) {
    const uint64_t ran = RunNext(std::numeric_limits<TimeMs>::max(), n);
    if (ran == 0) break;
    n -= ran;
  }
}

}  // namespace unilog
