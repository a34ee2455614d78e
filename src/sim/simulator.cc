#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace unilog {

void Simulator::At(TimeMs t, Callback cb) {
  if (t < now_) t = now_;
  std::vector<Event>& heap = t - now_ < kNearHorizonMs ? near_ : far_;
  heap.push_back(Event{t, next_seq_++, std::move(cb)});
  std::push_heap(heap.begin(), heap.end(), EventLater{});
}

bool Simulator::RunNext(TimeMs limit) {
  std::vector<Event>* heap = &near_;
  if (near_.empty() ||
      (!far_.empty() && EventLater{}(near_.front(), far_.front()))) {
    heap = &far_;
  }
  if (heap->empty() || heap->front().time > limit) return false;
  std::pop_heap(heap->begin(), heap->end(), EventLater{});
  Event ev = std::move(heap->back());
  heap->pop_back();
  now_ = ev.time;
  ++events_processed_;
  ev.cb();
  return true;
}

void Simulator::Run() {
  while (RunNext(std::numeric_limits<TimeMs>::max())) {
  }
}

void Simulator::RunUntil(TimeMs t) {
  while (RunNext(t)) {
  }
  if (now_ < t) now_ = t;
}

void Simulator::Step(uint64_t n) {
  while (n-- > 0 && RunNext(std::numeric_limits<TimeMs>::max())) {
  }
}

}  // namespace unilog
