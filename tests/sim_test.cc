#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fuxi::sim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(3.0, [&] { order.push_back(3); });
  sim.Schedule(1.0, [&] { order.push_back(1); });
  sim.Schedule(2.0, [&] { order.push_back(2); });
  sim.RunToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.Now(), 3.0);
}

TEST(SimulatorTest, EqualTimesFireInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(1.0, [&, i] { order.push_back(i); });
  }
  sim.RunToCompletion();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedSchedulingAdvancesTime) {
  Simulator sim;
  double fired_at = -1;
  sim.Schedule(1.0, [&] {
    sim.Schedule(2.0, [&] { fired_at = sim.Now(); });
  });
  sim.RunToCompletion();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(5.0, [&] { ++fired; });
  uint64_t ran = sim.RunUntil(2.0);
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.Now(), 2.0);
  sim.RunToCompletion();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.Schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(handle.active());
  handle.Cancel();
  EXPECT_FALSE(handle.active());
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFiringIsNoop) {
  Simulator sim;
  int fired = 0;
  EventHandle handle = sim.Schedule(1.0, [&] { ++fired; });
  sim.RunToCompletion();
  handle.Cancel();  // must not crash or double-count
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelRacingSameTimestampWinsWhenScheduledFirst) {
  // Two events share t=1.0; insertion order breaks the tie. The earlier
  // event cancels the later one before it runs — the classic "timeout
  // answered at the same instant" race.
  Simulator sim;
  bool victim_fired = false;
  EventHandle victim = sim.Schedule(1.0, [&] { victim_fired = true; });
  sim.Schedule(1.0, [&] { victim.Cancel(); });
  sim.RunToCompletion();
  // `victim` was inserted before the cancelling event, so it fires
  // first; the cancel must be a harmless no-op.
  EXPECT_TRUE(victim_fired);

  // Reverse order: canceller runs first, victim never fires.
  bool second_fired = false;
  EventHandle second;
  sim.Schedule(1.0, [&] { second.Cancel(); });
  second = sim.Schedule(1.0, [&] { second_fired = true; });
  sim.RunToCompletion();
  EXPECT_FALSE(second_fired);
  EXPECT_FALSE(second.active());
}

TEST(SimulatorTest, CancelInsideOwnCallbackIsNoop) {
  Simulator sim;
  int fired = 0;
  EventHandle handle;
  handle = sim.Schedule(1.0, [&] {
    ++fired;
    handle.Cancel();  // cancelling the event that is executing
  });
  sim.RunToCompletion();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(handle.active());
}

TEST(SimulatorTest, DoubleCancelIsIdempotent) {
  Simulator sim;
  bool fired = false;
  EventHandle handle = sim.Schedule(1.0, [&] { fired = true; });
  handle.Cancel();
  handle.Cancel();
  EXPECT_FALSE(handle.active());
  sim.RunToCompletion();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(5.0, [] {});
  sim.RunToCompletion();
  double fired_at = -1;
  sim.Schedule(-3.0, [&] { fired_at = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(1.0, [&] { ++fired; });
  sim.Schedule(2.0, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, ScheduleAtPastClampsToNow) {
  Simulator sim;
  sim.Schedule(10.0, [] {});
  sim.RunToCompletion();
  double fired_at = -1;
  sim.ScheduleAt(2.0, [&] { fired_at = sim.Now(); });
  sim.RunToCompletion();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

/// Callable that counts how often it is copied. Moves are free.
struct CopyCountingCallback {
  int* copies;
  int* calls;
  CopyCountingCallback(int* copies_in, int* calls_in)
      : copies(copies_in), calls(calls_in) {}
  CopyCountingCallback(const CopyCountingCallback& other)
      : copies(other.copies), calls(other.calls) {
    ++*copies;
  }
  CopyCountingCallback(CopyCountingCallback&&) = default;
  CopyCountingCallback& operator=(const CopyCountingCallback&) = delete;
  CopyCountingCallback& operator=(CopyCountingCallback&&) = default;
  void operator()() const { ++*calls; }
};

TEST(SimulatorTest, FiringMovesTheCallbackInsteadOfCopyingIt) {
  // Enough events, at shuffled times, to make the heap sift on every
  // push and pop: sifting moves events, and firing moves the callback
  // out, so no callback (or the payload it captured) is ever copied.
  Simulator sim;
  int copies = 0;
  int calls = 0;
  for (int i = 0; i < 64; ++i) {
    sim.Schedule((i * 37) % 64,
                 std::function<void()>(CopyCountingCallback(&copies, &calls)));
  }
  EXPECT_EQ(copies, 0);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(copies, 0);
  sim.RunToCompletion();
  EXPECT_EQ(calls, 64);
  EXPECT_EQ(copies, 0);
}

// ---------------------------------------------------- slot-table handles
//
// Callbacks live in reused slots; a handle names (slot, generation). The
// tests below pin what a handle must still answer once its slot moved on.

TEST(SimulatorTest, StaleHandleOfReusedSlotIsInactiveAndCannotCancel) {
  Simulator sim;
  int first = 0;
  EventHandle stale = sim.Schedule(1.0, [&] { ++first; });
  sim.RunToCompletion();
  EXPECT_EQ(first, 1);
  EXPECT_FALSE(stale.active());

  // The only slot ever taken is free again, so this event reuses it.
  int second = 0;
  EventHandle fresh = sim.Schedule(1.0, [&] { ++second; });
  EXPECT_FALSE(stale.active());
  EXPECT_TRUE(fresh.active());
  stale.Cancel();  // names the old generation: must not touch the new event
  EXPECT_TRUE(fresh.active());
  sim.RunToCompletion();
  EXPECT_EQ(second, 1);
  EXPECT_FALSE(fresh.active());
}

TEST(SimulatorTest, SlotCanBeCancelledThenReused) {
  Simulator sim;
  int cancelled_calls = 0;
  EventHandle cancelled = sim.Schedule(1.0, [&] { ++cancelled_calls; });
  cancelled.Cancel();
  sim.RunToCompletion();  // pops the cancelled key, frees its slot
  EXPECT_EQ(cancelled_calls, 0);
  EXPECT_EQ(sim.ExecutedEvents(), 0u);

  int reused_calls = 0;
  EventHandle reused = sim.Schedule(1.0, [&] { ++reused_calls; });
  EXPECT_TRUE(reused.active());
  EXPECT_FALSE(cancelled.active());
  cancelled.Cancel();
  EXPECT_TRUE(reused.active());
  sim.RunToCompletion();
  EXPECT_EQ(reused_calls, 1);
  EXPECT_EQ(cancelled_calls, 0);
}

TEST(SimulatorTest, CancelledSlotStaysTakenUntilItsKeyIsPopped) {
  // A cancelled event's key stays queued, so its slot must not be handed
  // to a new event before the key pops; the new event and the cancelled
  // one coexist and only the new one runs.
  Simulator sim;
  int late = 0;
  int early = 0;
  EventHandle victim = sim.Schedule(5.0, [&] { ++late; });
  victim.Cancel();
  EventHandle other = sim.Schedule(1.0, [&] { ++early; });
  EXPECT_EQ(sim.PendingEvents(), 2u);
  EXPECT_TRUE(other.active());
  sim.RunToCompletion();
  EXPECT_EQ(early, 1);
  EXPECT_EQ(late, 0);
  EXPECT_DOUBLE_EQ(sim.Now(), 5.0);  // the cancelled key still advanced time
}

TEST(SimulatorTest, HandleOutlivesItsSimulator) {
  EventHandle pending;
  EventHandle fired;
  {
    Simulator sim;
    fired = sim.Schedule(1.0, [] {});
    pending = sim.Schedule(5.0, [] {});
    sim.RunUntil(2.0);
    EXPECT_FALSE(fired.active());
    EXPECT_TRUE(pending.active());
  }
  // The simulator (and its state table) is gone: both handles answer
  // inactive and cancelling is a harmless no-op.
  EXPECT_FALSE(pending.active());
  EXPECT_FALSE(fired.active());
  pending.Cancel();
  fired.Cancel();
  EXPECT_FALSE(pending.active());
  EventHandle copy = pending;
  EXPECT_FALSE(copy.active());
}

TEST(SimulatorTest, CancelledEventsNeverCountAsExecuted) {
  Simulator sim;
  std::vector<EventHandle> handles;
  int calls = 0;
  for (int i = 0; i < 10; ++i) {
    handles.push_back(sim.Schedule(i, [&] { ++calls; }));
  }
  for (int i = 0; i < 10; i += 3) handles[static_cast<size_t>(i)].Cancel();
  EXPECT_EQ(sim.PendingEvents(), 10u);
  EXPECT_EQ(sim.RunToCompletion(), 6u);
  EXPECT_EQ(calls, 6);
  EXPECT_EQ(sim.ExecutedEvents(), 6u);
  EXPECT_TRUE(sim.Idle());
  // A cancelled event's slot, reused, counts once it really runs.
  sim.Schedule(1.0, [&] { ++calls; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.ExecutedEvents(), 7u);
}

TEST(SimulatorTest, HandleReadsActiveWhileItsEventAndObserversRun) {
  Simulator sim;
  EventHandle handle;
  bool active_in_callback = false;
  bool active_in_observer = false;
  bool observed = false;
  sim.AddPostEventObserver([&](SimTime) {
    if (observed) return;
    observed = true;
    active_in_observer = handle.active();
  });
  handle = sim.Schedule(1.0, [&] {
    active_in_callback = handle.active();
    // Growing the slot table under the running callback must not move it.
    for (int i = 0; i < 64; ++i) sim.Schedule(2.0, [] {});
  });
  sim.RunToCompletion();
  EXPECT_TRUE(active_in_callback);
  EXPECT_TRUE(active_in_observer);
  EXPECT_FALSE(handle.active());
}

TEST(SimulatorTest, CallbackIsDestroyedAfterTheObservers) {
  Simulator sim;
  std::vector<std::string> order;
  struct Token {
    std::vector<std::string>* order = nullptr;
    ~Token() { order->push_back("destroyed"); }
  };
  auto token = std::make_shared<Token>();
  token->order = &order;
  sim.AddPostEventObserver([&](SimTime) { order.push_back("observer"); });
  sim.Schedule(1.0, [token] { token->order->push_back("fired"); });
  token.reset();
  sim.RunToCompletion();
  EXPECT_EQ(order,
            (std::vector<std::string>{"fired", "observer", "destroyed"}));
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, [] {});
  sim.RunToCompletion();
  EXPECT_EQ(sim.ExecutedEvents(), 7u);
}

}  // namespace
}  // namespace fuxi::sim
