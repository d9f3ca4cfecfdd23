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

/// Handle for a scheduled event; lets callers cancel pending timers
/// (e.g. heartbeat timeouts that were answered in time).
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void Cancel() {
    if (auto p = cancelled_.lock()) *p = true;
  }

  bool active() const {
    auto p = cancelled_.lock();
    return p && !*p;
  }

 private:
  friend class Simulator;
  explicit EventHandle(std::weak_ptr<bool> cancelled)
      : cancelled_(std::move(cancelled)) {}

  std::weak_ptr<bool> cancelled_;
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
  struct Event {
    SimTime time;
    uint64_t seq;
    std::function<void()> fn;
    std::shared_ptr<bool> cancelled;
  };
  /// Heap order: the earliest (time, seq) sits at the front.
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  /// Binary heap under EventLater (std::push_heap/pop_heap). Unlike
  /// std::priority_queue, whose top() is const, the popped event is
  /// moved out, so firing never copies its callback or the message
  /// payload the callback captured.
  std::vector<Event> queue_;
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
