#ifndef FUXI_SIM_SIMULATOR_H_
#define FUXI_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.h"

namespace fuxi::sim {

/// Virtual time in seconds since simulation start.
using SimTime = double;

/// Per-slot event states shared by a Simulator and its handles. Entry
/// `slot` holds 2 * generation + cancelled bit: it is even while the
/// slot's current event is pending (or firing), odd once that event is
/// cancelled, and moves to the next even value when the slot is freed.
using EventSlotStates = std::vector<uint64_t>;

/// Handle for a scheduled event; lets callers cancel pending timers
/// (e.g. heartbeat timeouts that were answered in time). It names the
/// event by (slot, state at scheduling) and holds the simulator's state
/// table weakly, so it stays safe to ask after the event fired, after
/// its slot was reused, and after the simulator itself is gone.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void Cancel() {
    if (auto states = states_.lock()) {
      uint64_t& state = (*states)[slot_];
      if (state == state_) state |= 1;
    }
  }

  bool active() const {
    auto states = states_.lock();
    return states && (*states)[slot_] == state_;
  }

 private:
  friend class Simulator;
  EventHandle(const std::shared_ptr<EventSlotStates>& states, uint32_t slot,
              uint64_t state)
      : states_(states), slot_(slot), state_(state) {}

  std::weak_ptr<EventSlotStates> states_;
  uint32_t slot_ = 0;
  uint64_t state_ = 0;
};

/// Deterministic discrete-event simulator. Events fire in (time,
/// insertion sequence) order, so identical inputs replay identically.
/// Single-threaded by design: the production Fuxi protocol logic runs
/// inside event callbacks against virtual time, while benchmarks measure
/// the scheduler's real wall-clock cost from outside.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now (clamped to >= 0).
  /// The returned handle can cancel the event before it fires.
  EventHandle Schedule(SimTime delay, std::function<void()> fn);

  /// Schedules at an absolute virtual time (clamped to >= Now()).
  EventHandle ScheduleAt(SimTime when, std::function<void()> fn);

  /// Runs events until the queue empties or `until` is passed.
  /// Returns the number of events executed.
  uint64_t RunUntil(SimTime until);

  /// Runs until the event queue is exhausted.
  uint64_t RunToCompletion();

  /// Executes exactly one event if any is pending. Returns false when
  /// the queue is empty.
  bool Step();

  /// True when no events are pending.
  bool Idle() const { return queue_.empty(); }

  size_t PendingEvents() const { return queue_.size(); }
  uint64_t ExecutedEvents() const { return executed_; }

  /// Installs the primary observer invoked after every executed event,
  /// with the event's virtual time. Observers see the state every
  /// transition leaves behind — this is what lets an invariant monitor
  /// check the cluster *continuously* instead of only at test end. The
  /// observer must not schedule unbounded new work from inside itself
  /// (it runs on the hot path) but may call Schedule(). Pass nullptr to
  /// remove.
  void SetPostEventHook(std::function<void(SimTime)> hook) {
    post_event_hook_ = std::move(hook);
  }

  /// Registers an additional post-event observer and returns a token
  /// for RemovePostEventObserver. Unlike the single primary hook,
  /// observers are keyed, so independent owners (telemetry samplers,
  /// monitors) attach and detach without coordinating. They run after
  /// the primary hook, in registration order — deterministic, since
  /// registration order is itself part of the replayed construction
  /// sequence. Observing an event does not count as executing one:
  /// ExecutedEvents() (folded into replay digests) is untouched.
  uint64_t AddPostEventObserver(std::function<void(SimTime)> observer) {
    uint64_t token = next_observer_token_++;
    post_event_observers_.emplace_back(token, std::move(observer));
    return token;
  }

  /// Removes a keyed observer; unknown tokens are ignored (idempotent).
  void RemovePostEventObserver(uint64_t token) {
    for (auto it = post_event_observers_.begin();
         it != post_event_observers_.end(); ++it) {
      if (it->first == token) {
        post_event_observers_.erase(it);
        return;
      }
    }
  }

 private:
  /// Heap entry: the event's order plus the slot holding its callback.
  /// 24 bytes, so sifting never touches a callback.
  struct EventKey {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  /// Heap order: the earliest (time, seq) sits at the front.
  struct EventLater {
    bool operator()(const EventKey& a, const EventKey& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Destroys the slot's callback, advances its state to the next
  /// generation (so every handle to the old event reads inactive) and
  /// returns the slot to the free list.
  void ReleaseSlot(uint32_t slot);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  /// Binary heap of keys under EventLater (std::push_heap/pop_heap).
  /// A cancelled event's key stays queued until it is popped, so
  /// PendingEvents() and RunUntil see it exactly as they always did.
  std::vector<EventKey> queue_;
  /// Callbacks by slot. A slot is taken at scheduling and freed after
  /// its event fires (or is popped cancelled), so no event allocates
  /// beyond what its callback captures.
  std::vector<std::function<void()>> callbacks_;
  std::vector<uint32_t> free_slots_;
  std::shared_ptr<EventSlotStates> states_ =
      std::make_shared<EventSlotStates>();
  std::function<void(SimTime)> post_event_hook_;
  uint64_t next_observer_token_ = 1;
  std::vector<std::pair<uint64_t, std::function<void(SimTime)>>>
      post_event_observers_;
};

/// Base class for simulated components (FuxiMaster, FuxiAgent, masters,
/// workers). An actor owns a pointer to the shared simulator and uses it
/// for all timing; subclasses add message handlers.
class Actor {
 public:
  explicit Actor(Simulator* sim) : sim_(sim) { FUXI_CHECK(sim != nullptr); }
  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  Simulator* sim() const { return sim_; }
  SimTime Now() const { return sim_->Now(); }

 protected:
  /// Schedules a member callback; the callback must not outlive the
  /// actor (owners tear down actors only between events or via alive
  /// flags, mirroring process kill semantics).
  EventHandle After(SimTime delay, std::function<void()> fn) {
    return sim_->Schedule(delay, std::move(fn));
  }

 private:
  Simulator* sim_;
};

}  // namespace fuxi::sim

#endif  // FUXI_SIM_SIMULATOR_H_
