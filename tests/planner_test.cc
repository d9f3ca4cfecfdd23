#include "planner/planner.h"

#include <gtest/gtest.h>

#include <vector>

#include "chaos/campaign.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "planner/timeline.h"
#include "resource/scheduler.h"
#include "sweep/sweep_runner.h"

namespace fuxi::planner {
namespace {

using cluster::ResourceVector;

// ---------------------------------------------------------------------
// Timeline unit + property tests.
// ---------------------------------------------------------------------

TEST(PlannerTimelineTest, ReserveReleaseAndPointAccounting) {
  Timeline tl(ResourceVector(400, 8192));
  tl.ReserveAt(1, 0.0, 10.0, ResourceVector(100, 1024));
  tl.ReserveAt(2, 5.0, kForever, ResourceVector(200, 2048), /*owner=*/7);
  EXPECT_EQ(tl.claim_count(), 2u);
  // Points: {0, 10, 5} — the infinite end contributes no point.
  EXPECT_EQ(tl.point_count(), 3u);
  EXPECT_EQ(tl.LoadAt(0.0), ResourceVector(100, 1024));
  EXPECT_EQ(tl.LoadAt(6.0), ResourceVector(300, 3072));
  EXPECT_EQ(tl.LoadAt(10.0), ResourceVector(200, 2048));
  EXPECT_EQ(tl.RunningLoadAt(6.0), ResourceVector(100, 1024));
  EXPECT_TRUE(tl.Release(1));
  EXPECT_FALSE(tl.Release(1));
  EXPECT_EQ(tl.claim_count(), 1u);
}

TEST(PlannerTimelineTest, MinAvailableSkipsOwnOwner) {
  Timeline tl(ResourceVector(400, 8192));
  ResourceVector budget(400, 8192);
  tl.ReserveAt(1, 10.0, 20.0, ResourceVector(400, 8192), /*owner=*/3);
  // The reservation blocks everyone else over its window...
  EXPECT_EQ(tl.MinAvailable(0.0, kForever, budget).cpu(), 0);
  // ...but never its own demand.
  EXPECT_EQ(tl.MinAvailable(0.0, kForever, budget, /*skip_owner=*/3).cpu(),
            400);
}

TEST(PlannerTimelineTest, EarliestFitLandsAfterBlockingClaims) {
  Timeline tl(ResourceVector(400, 8192));
  ResourceVector budget(400, 8192);
  tl.ReserveAt(1, 0.0, 10.0, ResourceVector(300, 4096));
  // 200 cpu for 5s does not fit beside the running 300 until t=10.
  EXPECT_EQ(tl.EarliestFit(0.0, 5.0, ResourceVector(200, 2048), budget),
            10.0);
  // 100 cpu backfills immediately.
  EXPECT_EQ(tl.EarliestFit(0.0, 5.0, ResourceVector(100, 1024), budget),
            0.0);
  // More than the budget never fits.
  EXPECT_EQ(tl.EarliestFit(0.0, 5.0, ResourceVector(500, 1024), budget),
            kForever);
}

TEST(PlannerTimelineTest, CheckNoOvercommitDetectsViolations) {
  Timeline tl(ResourceVector(400, 8192));
  ResourceVector budget(400, 8192);
  tl.ReserveAt(1, 0.0, 10.0, ResourceVector(300, 4096));
  EXPECT_TRUE(tl.CheckNoOvercommit(budget, 0.0));
  tl.ReserveAt(2, 5.0, 8.0, ResourceVector(200, 1024), /*owner=*/1);
  EXPECT_FALSE(tl.CheckNoOvercommit(budget, 0.0));
  // The violation lies entirely before t=8; the tail is clean again.
  EXPECT_TRUE(tl.CheckNoOvercommit(budget, 8.0));
}

/// The core safety property: a book grown ONLY through EarliestFit
/// admission never overcommits, across randomized reserve / release /
/// time-advance sequences and across seeds. Runs under the ASan tier-1
/// preset, so any container misuse in the timeline surfaces here too.
TEST(PlannerTimelineTest, RandomizedAdmissionNeverOvercommits) {
  // The 20 seeds are independent; fan them over the sweep runner (each
  // builds its own Timeline + Rng — the property itself is unchanged).
  ::fuxi::sweep::SweepRunner sweep_runner(
      {::fuxi::sweep::DefaultSweepJobs()});
  sweep_runner.Run(20, [](size_t seed_index) {
    const uint64_t seed = 1 + seed_index;
    Rng rng(seed * 0x9E3779B97F4A7C15ull);
    Timeline tl(ResourceVector(400, 8192));
    ResourceVector budget(400, 8192);
    double now = 0.0;
    uint64_t next_id = 1;
    std::vector<uint64_t> live;
    for (int op = 0; op < 400; ++op) {
      size_t dice = rng.Uniform(10);
      if (dice < 5) {
        // Admit a claim at its earliest legal start.
        ResourceVector amount(
            static_cast<int64_t>(50 + 50 * rng.Uniform(6)),
            static_cast<int64_t>(512 * (1 + rng.Uniform(4))));
        double duration = 1.0 + rng.NextDouble() * 9.0;
        uint64_t owner = rng.Uniform(3) == 0 ? next_id + 1000 : 0;
        double start = tl.EarliestFit(now, duration, amount, budget, owner);
        if (start != kForever) {
          tl.ReserveAt(next_id, start, start + duration, amount, owner);
          live.push_back(next_id);
          ++next_id;
        }
      } else if (dice < 7 && !live.empty()) {
        size_t victim = rng.Uniform(live.size());
        EXPECT_TRUE(tl.Release(live[victim]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else if (dice < 9) {
        now += rng.NextDouble() * 3.0;
        for (uint64_t id : tl.PruneEndedBefore(now)) {
          for (size_t i = 0; i < live.size(); ++i) {
            if (live[i] == id) {
              live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
              break;
            }
          }
        }
      }
      ASSERT_TRUE(tl.CheckNoOvercommit(budget, now))
          << "seed " << seed << " op " << op << " at t=" << now;
      // LoadAt cross-check against a brute-force sum over claims.
      ResourceVector brute;
      for (const auto& [id, claim] : tl.claims()) {
        (void)id;
        if (claim.start <= now && now < claim.end) brute += claim.amount;
      }
      ASSERT_TRUE(brute == tl.LoadAt(now));
    }
  });
}

// ---------------------------------------------------------------------
// Scheduler-level policy tests.
// ---------------------------------------------------------------------

using resource::ResourceRequest;
using resource::Scheduler;
using resource::SchedulingResult;
using resource::UnitRequestDelta;

cluster::ClusterTopology SmallCluster() {
  cluster::ClusterTopology::Options options;
  options.racks = 2;
  options.machines_per_rack = 3;
  options.machine_capacity = ResourceVector(400, 8192);
  return cluster::ClusterTopology::Build(options);
}

UnitRequestDelta MakeUnit(uint32_t slot, resource::Priority priority,
                          int64_t cpu, int64_t mem, int64_t count) {
  UnitRequestDelta delta;
  delta.slot_id = slot;
  delta.has_def = true;
  delta.def.slot_id = slot;
  delta.def.priority = priority;
  delta.def.resources = ResourceVector(cpu, mem);
  delta.total_count_delta = count;
  return delta;
}

int64_t TotalAssigned(const SchedulingResult& result) {
  int64_t total = 0;
  for (const resource::Assignment& a : result.assignments) total += a.count;
  return total;
}

class PlannerSchedulerTest : public ::testing::Test {
 protected:
  PlannerSchedulerTest() : topo_(SmallCluster()), scheduler_(&topo_) {}

  Status Apply(AppId app, UnitRequestDelta delta, SchedulingResult* result) {
    ResourceRequest request;
    request.app = app;
    request.units.push_back(std::move(delta));
    return scheduler_.ApplyRequest(request, result);
  }

  cluster::ClusterTopology topo_;
  Scheduler scheduler_;
};

TEST_F(PlannerSchedulerTest, GangPlacesAllOrNothing) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(2)).ok());
  // App1 holds 20 of the 24 unit-slots; only 4 remain free.
  SchedulingResult result;
  ASSERT_TRUE(Apply(AppId(1), MakeUnit(0, 10, 100, 2048, 20), &result).ok());
  ASSERT_EQ(TotalAssigned(result), 20);

  // App2's gang of 8 cannot fit: NOT EVEN ONE unit may start.
  UnitRequestDelta gang = MakeUnit(0, 10, 100, 2048, 8);
  gang.has_plan = true;
  gang.plan.gang_id = 42;
  gang.plan.gang_size = 1;
  result.Clear();
  ASSERT_TRUE(Apply(AppId(2), gang, &result).ok());
  EXPECT_EQ(TotalAssigned(result), 0);
  EXPECT_TRUE(scheduler_.planner_active());
  EXPECT_FALSE(scheduler_.planner()->GangStarted(42));
  EXPECT_TRUE(scheduler_.PlannerGangAtomicityOk());

  // App1 shrinks by 6 units; the next planning pass starts the whole
  // gang in one transaction.
  std::vector<resource::Scheduler::GrantEntry> grants =
      scheduler_.GrantsOf(AppId(1));
  int64_t released = 0;
  result.Clear();
  for (const auto& grant : grants) {
    int64_t take = std::min<int64_t>(grant.count, 6 - released);
    if (take <= 0) break;
    ASSERT_TRUE(scheduler_
                    .Release(AppId(1), grant.slot_id, grant.machine, take,
                             &result)
                    .ok());
    released += take;
  }
  ASSERT_EQ(released, 6);
  result.Clear();
  scheduler_.PlannerTick(0.0, &result);
  EXPECT_EQ(TotalAssigned(result), 8);
  EXPECT_TRUE(scheduler_.planner()->GangStarted(42));
  EXPECT_TRUE(scheduler_.PlannerGangAtomicityOk());
  EXPECT_TRUE(scheduler_.PlannerOvercommitOk());
  EXPECT_TRUE(scheduler_.CheckInvariants());
}

TEST_F(PlannerSchedulerTest, MalformedHintsAreRejectedWithoutSideEffects) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  SchedulingResult result;
  // Slot 0 asks for more than the cluster holds, so it stays waiting.
  ASSERT_TRUE(Apply(AppId(1), MakeUnit(0, 10, 100, 2048, 30), &result).ok());
  auto demands = [this] {
    auto view = scheduler_.locality_tree().AllDemands();
    return std::vector<const resource::PendingDemand*>(view.begin(),
                                                       view.end());
  };
  const std::vector<const resource::PendingDemand*> before = demands();
  ASSERT_EQ(before.size(), 1u);
  const int64_t remaining_before = before[0]->total_remaining;

  // An advance reservation without a lifetime estimate, on a new slot.
  UnitRequestDelta reservation = MakeUnit(1, 10, 100, 2048, 2);
  reservation.has_plan = true;
  reservation.plan.reservation = true;
  reservation.plan.reserve_start = 10.0;
  result.Clear();
  EXPECT_TRUE(Apply(AppId(1), reservation, &result).IsInvalidArgument());

  // A gang member that does not declare its gang size, on the live slot.
  UnitRequestDelta gang = MakeUnit(0, 10, 100, 2048, 4);
  gang.has_plan = true;
  gang.plan.gang_id = 7;
  gang.plan.gang_size = 0;
  EXPECT_TRUE(Apply(AppId(1), gang, &result).IsInvalidArgument());

  EXPECT_EQ(demands(), before);
  EXPECT_EQ(before[0]->total_remaining, remaining_before);
  EXPECT_FALSE(before[0]->plan.Any());
  EXPECT_FALSE(scheduler_.planner_active());
  EXPECT_TRUE(result.assignments.empty());
  EXPECT_TRUE(scheduler_.CheckInvariants());
}

TEST_F(PlannerSchedulerTest, AdvanceReservationConvertsAtItsStart) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  UnitRequestDelta delta = MakeUnit(0, 10, 100, 2048, 4);
  delta.has_plan = true;
  delta.plan.reservation = true;
  delta.plan.estimated_seconds = 5.0;
  delta.plan.reserve_start = 10.0;
  SchedulingResult result;
  ASSERT_TRUE(Apply(AppId(1), delta, &result).ok());
  // Nothing starts now, even though the cluster is empty.
  EXPECT_EQ(TotalAssigned(result), 0);
  ASSERT_TRUE(scheduler_.planner_active());
  EXPECT_EQ(scheduler_.planner()->reservations().size(), 1u);

  // Ticks before the window: still held.
  result.Clear();
  scheduler_.PlannerTick(5.0, &result);
  EXPECT_EQ(TotalAssigned(result), 0);
  // The window opens: the reservation converts into real grants.
  result.Clear();
  scheduler_.PlannerTick(10.0, &result);
  EXPECT_EQ(TotalAssigned(result), 4);
  EXPECT_TRUE(scheduler_.PlannerOvercommitOk());
  EXPECT_TRUE(scheduler_.CheckInvariants());
}

TEST_F(PlannerSchedulerTest, ImpossibleDeadlineExpiresTheDemand) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  UnitRequestDelta delta = MakeUnit(0, 10, 100, 2048, 4);
  delta.has_plan = true;
  delta.plan.reservation = true;
  delta.plan.estimated_seconds = 50.0;
  delta.plan.reserve_start = 10.0;
  delta.plan.deadline = 20.0;  // start+estimate > deadline: infeasible
  SchedulingResult result;
  ASSERT_TRUE(Apply(AppId(1), delta, &result).ok());
  EXPECT_EQ(TotalAssigned(result), 0);
  // The expiry zeroed the outstanding ask instead of holding forever.
  EXPECT_EQ(scheduler_.locality_tree().TotalWaitingUnits(), 0);
}

TEST_F(PlannerSchedulerTest, BackfillAdmitsOnlyWorkThatFinishesInTime) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(2)).ok());
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(3)).ok());
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(4)).ok());

  // App1: estimated 10s work covering 300 of each machine's 400 cpu.
  UnitRequestDelta base = MakeUnit(0, 10, 300, 4096, 6);
  base.has_plan = true;
  base.plan.estimated_seconds = 10.0;
  SchedulingResult result;
  ASSERT_TRUE(Apply(AppId(1), base, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 6);

  // App2: blocked head-of-queue demand for a full machine, estimated.
  // The planner reserves its earliest start (t=10, when App1 drains).
  UnitRequestDelta head = MakeUnit(0, 50, 400, 8192, 1);
  head.has_plan = true;
  head.plan.estimated_seconds = 20.0;
  result.Clear();
  ASSERT_TRUE(Apply(AppId(2), head, &result).ok());
  EXPECT_EQ(TotalAssigned(result), 0);
  ASSERT_TRUE(scheduler_.planner_active());
  ASSERT_EQ(scheduler_.planner()->reservations().size(), 1u);

  // App3: no estimate — would hold its resources forever, delaying the
  // reservation. The backfill guard refuses it on the reserved machine
  // (and the cluster has 100 free cpu on every machine, so without the
  // guard it would have been granted there).
  int64_t reserved_machine = -1;
  for (const auto& [id, res] : scheduler_.planner()->reservations()) {
    (void)id;
    for (const auto& [key, bookings] : res.bookings) {
      (void)key;
      for (const auto& booking : bookings) reserved_machine = booking.machine;
    }
  }
  ASSERT_GE(reserved_machine, 0);
  UnitRequestDelta forever = MakeUnit(0, 10, 100, 1024, 6);
  result.Clear();
  ASSERT_TRUE(Apply(AppId(3), forever, &result).ok());
  // Granted everywhere EXCEPT the reserved machine: 5 of 6.
  EXPECT_EQ(TotalAssigned(result), 5);
  for (const resource::Assignment& a : result.assignments) {
    EXPECT_NE(a.machine.value(), reserved_machine)
        << "unestimated work backfilled onto the reserved machine";
  }

  // App4: 5s of work — provably done before the t=10 reservation, so
  // EASY backfill lets it jump ahead ON the reserved machine, the only
  // place with free capacity left.
  UnitRequestDelta quick = MakeUnit(0, 10, 100, 1024, 1);
  quick.has_plan = true;
  quick.plan.estimated_seconds = 5.0;
  result.Clear();
  ASSERT_TRUE(Apply(AppId(4), quick, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 1);
  EXPECT_EQ(result.assignments.front().machine.value(), reserved_machine);
  EXPECT_TRUE(scheduler_.PlannerOvercommitOk());
  EXPECT_TRUE(scheduler_.CheckInvariants());
}

TEST_F(PlannerSchedulerTest, MachineLossReplansItsReservations) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  UnitRequestDelta delta = MakeUnit(0, 10, 400, 8192, 1);
  delta.has_plan = true;
  delta.plan.reservation = true;
  delta.plan.estimated_seconds = 5.0;
  delta.plan.reserve_start = 10.0;
  SchedulingResult result;
  ASSERT_TRUE(Apply(AppId(1), delta, &result).ok());
  ASSERT_EQ(scheduler_.planner()->reservations().size(), 1u);
  int64_t booked = -1;
  for (const auto& [id, res] : scheduler_.planner()->reservations()) {
    (void)id;
    for (const auto& [key, bookings] : res.bookings) {
      (void)key;
      for (const auto& booking : bookings) booked = booking.machine;
    }
  }
  ASSERT_GE(booked, 0);
  result.Clear();
  scheduler_.SetMachineOffline(MachineId(booked), &result);
  EXPECT_TRUE(scheduler_.PlannerOvercommitOk());
  // The next pass re-books the reservation on a surviving machine.
  result.Clear();
  scheduler_.PlannerTick(0.0, &result);
  ASSERT_EQ(scheduler_.planner()->reservations().size(), 1u);
  for (const auto& [id, res] : scheduler_.planner()->reservations()) {
    (void)id;
    for (const auto& [key, bookings] : res.bookings) {
      (void)key;
      for (const auto& booking : bookings) {
        EXPECT_NE(booking.machine, booked);
      }
    }
  }
  EXPECT_TRUE(scheduler_.PlannerOvercommitOk());
}

// ---------------------------------------------------------------------
// Chaos sweeps with the planner workload + planner faults: zero
// violations, every app finishes.
// ---------------------------------------------------------------------

TEST(PlannerChaosCampaign, FiftySeedPlannerSweepHoldsAllInvariants) {
  chaos::CampaignConfig config;
  config.planner_apps = 1;
  config.plan.planner_faults = true;
  chaos::SweepResult sweep =
      chaos::RunSeedSweep(1, 50, config, ::fuxi::sweep::DefaultSweepJobs());
  EXPECT_EQ(sweep.passed, 50);
  if (sweep.failed > 0) {
    ADD_FAILURE() << chaos::FormatCampaignFailure(sweep.failures.front());
  }
}

TEST(PlannerChaosCampaign, ShardedPlannerSweepHoldsAllInvariants) {
  chaos::CampaignConfig config = chaos::ShardedCampaignConfig(2);
  config.planner_apps = 1;
  config.plan.planner_faults = true;
  chaos::SweepResult sweep =
      chaos::RunSeedSweep(1, 50, config, ::fuxi::sweep::DefaultSweepJobs());
  EXPECT_EQ(sweep.passed, 50);
  if (sweep.failed > 0) {
    ADD_FAILURE() << chaos::FormatCampaignFailure(sweep.failures.front());
  }
}

}  // namespace
}  // namespace fuxi::planner
