#ifndef UNILOG_SIM_SIMULATOR_H_
#define UNILOG_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/sim_time.h"

namespace unilog {

/// A deterministic single-threaded discrete-event simulator. Components of
/// the delivery infrastructure (Scribe daemons, aggregators, the log mover,
/// ZooKeeper sessions) schedule callbacks on a shared virtual clock; the
/// simulator executes them in (time, insertion-order) order, so a given
/// seed always produces the exact same run.
///
/// Pending events live in two heaps with the same (time, seq) order: the
/// near heap takes events due less than kNearHorizonMs ahead of the clock
/// when they are scheduled, the far heap everything later. Each step runs
/// the earlier of the two tops, so the order is exactly that of one heap,
/// while periodic timers (a few hundred ms to a second ahead) sift only
/// through the other near-term events, not through input scheduled hours
/// or days ahead.
class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Events due less than this far ahead of Now() go to the near heap.
  static constexpr TimeMs kNearHorizonMs = 10 * kMillisPerSecond;

  explicit Simulator(TimeMs start_time = 0)
      : now_(start_time) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  TimeMs Now() const { return now_; }

  /// Schedules `cb` at absolute virtual time `t`. Times in the past are
  /// clamped to Now() (the callback runs next).
  void At(TimeMs t, Callback cb);

  /// Schedules `cb` after `delay` milliseconds of virtual time.
  void After(TimeMs delay, Callback cb) { At(now_ + delay, std::move(cb)); }

  /// Runs until the event queue is empty.
  void Run();

  /// Runs events with time <= `t`, then advances the clock to `t`.
  void RunUntil(TimeMs t);

  /// Executes at most `n` more events.
  void Step(uint64_t n = 1);

  size_t PendingEvents() const { return near_.size() + far_.size(); }
  uint64_t EventsProcessed() const { return events_processed_; }

 private:
  struct Event {
    TimeMs time;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    Callback cb;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Runs the earliest pending event if it is due at or before `limit`;
  /// false when there is none.
  bool RunNext(TimeMs limit);

  TimeMs now_;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  std::vector<Event> near_;  // heaps under EventLater
  std::vector<Event> far_;
};

}  // namespace unilog

#endif  // UNILOG_SIM_SIMULATOR_H_
