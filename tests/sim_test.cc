#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <functional>
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

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.Schedule(i, [] {});
  sim.RunToCompletion();
  EXPECT_EQ(sim.ExecutedEvents(), 7u);
}

}  // namespace
}  // namespace fuxi::sim
