#include "sim/simulator.h"

#include <algorithm>
#include <utility>

namespace fuxi::sim {

EventHandle Simulator::Schedule(SimTime delay, std::function<void()> fn) {
  if (delay < 0) delay = 0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventHandle Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  if (when < now_) when = now_;
  auto cancelled = std::make_shared<bool>(false);
  EventHandle handle{std::weak_ptr<bool>(cancelled)};
  queue_.push_back(
      Event{when, next_seq_++, std::move(fn), std::move(cancelled)});
  std::push_heap(queue_.begin(), queue_.end(), EventLater{});
  return handle;
}

bool Simulator::Step() {
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    FUXI_CHECK_GE(ev.time, now_);
    now_ = ev.time;
    if (*ev.cancelled) continue;
    ++executed_;
    ev.fn();
    if (post_event_hook_) post_event_hook_(now_);
    for (const auto& [token, observer] : post_event_observers_) {
      observer(now_);
    }
    return true;
  }
  return false;
}

uint64_t Simulator::RunUntil(SimTime until) {
  uint64_t ran = 0;
  while (!queue_.empty() && queue_.front().time <= until) {
    if (Step()) ++ran;
  }
  if (now_ < until) now_ = until;
  return ran;
}

uint64_t Simulator::RunToCompletion() {
  uint64_t ran = 0;
  while (Step()) ++ran;
  return ran;
}

}  // namespace fuxi::sim
