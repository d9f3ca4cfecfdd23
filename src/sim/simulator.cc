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
  uint32_t slot = static_cast<uint32_t>(callbacks_.size());
  if (free_slots_.empty()) {
    callbacks_.push_back(std::move(fn));
    states_->push_back(0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(fn);
  }
  queue_.push_back(EventKey{when, next_seq_++, slot});
  std::push_heap(queue_.begin(), queue_.end(), EventLater{});
  return EventHandle(states_, slot, (*states_)[slot]);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  callbacks_[slot] = nullptr;
  uint64_t& state = (*states_)[slot];
  state = (state | 1) + 1;
  free_slots_.push_back(slot);
}

bool Simulator::Step() {
  while (!queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
    EventKey key = queue_.back();
    queue_.pop_back();
    FUXI_CHECK_GE(key.time, now_);
    now_ = key.time;
    if ((*states_)[key.slot] & 1) {
      ReleaseSlot(key.slot);
      continue;
    }
    ++executed_;
    // Moved out so the callback survives callbacks_ growing under it.
    // It is destroyed on return, after the observers, and the slot is
    // released only then: a handle reads active() while its own event
    // and the observers run.
    std::function<void()> fn = std::move(callbacks_[key.slot]);
    fn();
    if (post_event_hook_) post_event_hook_(now_);
    for (const auto& [token, observer] : post_event_observers_) {
      observer(now_);
    }
    ReleaseSlot(key.slot);
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
