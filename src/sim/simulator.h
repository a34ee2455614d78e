#ifndef UNILOG_SIM_SIMULATOR_H_
#define UNILOG_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <type_traits>
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
///
/// A heap entry is 24 bytes: (time, seq) and a reference either to a
/// one-shot callback in a slab or to a cohort of periodic timers (Every)
/// that fire back to back at the same (time, seq) position.
class Simulator {
 public:
  using Callback = std::function<void()>;
  /// A periodic timer's body; the timer stops when it returns false.
  using Tick = std::function<bool()>;

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

  /// Runs `tick` every `period` ms of virtual time, the first time
  /// `period` ms from now, until a tick returns false. Each run is one
  /// event, placed exactly where a callback whose last act is
  /// `After(period, itself)` would run: the re-arm takes its place in the
  /// (time, seq) order after everything the tick scheduled.
  void Every(TimeMs period, Tick tick);

  /// Runs until the event queue is empty.
  void Run();

  /// Runs events with time <= `t`, then advances the clock to `t`.
  void RunUntil(TimeMs t);

  /// Executes at most `n` more events (a timer tick is one event).
  void Step(uint64_t n = 1);

  /// Pending one-shot callbacks plus live timers (a timer whose tick is
  /// running is not pending).
  size_t PendingEvents() const {
    return callbacks_.size() - free_callbacks_.size() + live_timers_;
  }
  uint64_t EventsProcessed() const { return events_processed_; }

 private:
  struct Event {
    TimeMs time;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    uint32_t ref;  // kCohortRef | cohort index, or a callback index
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Timers with one period whose runs are adjacent in the (time, seq)
  /// order: one heap entry. Members run in `ticks` order; those before
  /// `next` already ran at `time`.
  struct Cohort {
    TimeMs time = 0;
    TimeMs period = 0;
    size_t next = 0;
    std::vector<Tick> ticks;
  };
  // A firing tick runs in place in its cohort's `ticks` buffer while
  // `cohorts_` may grow: growing must move the vectors, not copy them.
  static_assert(std::is_nothrow_move_constructible_v<Cohort>);

  static constexpr uint32_t kCohortRef = uint32_t{1} << 31;
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// Takes the next seq for `ref` at `t` and pushes it.
  void Push(TimeMs t, uint32_t ref);
  void PushEntry(const Event& ev);

  /// Appends `tick` to the cohort due at `t` whose seq is the last one
  /// taken (nothing was scheduled after it, so its members and `tick` are
  /// adjacent), or to a new cohort; returns the cohort's index.
  uint32_t Arm(TimeMs t, TimeMs period, Tick tick);

  /// Runs the earliest pending entry if it is due at or before `limit`,
  /// at most `budget` (>= 1) events of it; returns the events run, 0 when
  /// none is due.
  uint64_t RunNext(TimeMs limit, uint64_t budget);

  /// Fires the cohort of `ev` (just popped) for at most `budget` ticks.
  uint64_t FireCohort(const Event& ev, uint64_t budget);

  TimeMs now_;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  std::vector<Event> near_;  // heaps under EventLater
  std::vector<Event> far_;

  std::vector<Callback> callbacks_;  // one-shots, by Event::ref
  std::vector<uint32_t> free_callbacks_;
  std::vector<Cohort> cohorts_;
  std::vector<uint32_t> free_cohorts_;
  size_t live_timers_ = 0;

  /// The cohort holding the last seq taken, while it is pending; kNone
  /// once anything else takes a seq.
  uint32_t joinable_ = kNone;

  // While a cohort fires: when its survivors re-arm, the cohort they join
  // (kNone before the first survivor and outside a firing), and whether
  // something else was scheduled for `rearm_at_` since that cohort took
  // its seq, so the next survivor must run after it and starts a new one.
  TimeMs rearm_at_ = 0;
  uint32_t segment_ = kNone;
  bool split_ = false;
};

}  // namespace unilog

#endif  // UNILOG_SIM_SIMULATOR_H_
