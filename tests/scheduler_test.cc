#include "resource/scheduler.h"

#include <gtest/gtest.h>

#include "cluster/topology.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"

namespace fuxi::resource {
namespace {

using cluster::ClusterTopology;
using cluster::ResourceVector;

/// 2 racks x 3 machines, 4 cores / 8 GB each.
ClusterTopology SmallCluster() {
  ClusterTopology::Options options;
  options.racks = 2;
  options.machines_per_rack = 3;
  options.machine_capacity = ResourceVector(400, 8192);
  return ClusterTopology::Build(options);
}

UnitRequestDelta MakeUnit(uint32_t slot, Priority priority, int64_t cpu,
                          int64_t mem, int64_t count) {
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
  for (const Assignment& a : result.assignments) total += a.count;
  return total;
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : topo_(SmallCluster()), scheduler_(&topo_) {}

  ClusterTopology topo_;
  Scheduler scheduler_;
};

TEST_F(SchedulerTest, GrantsImmediatelyWhenResourcesFree) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  ResourceRequest request;
  request.app = AppId(1);
  request.units.push_back(MakeUnit(0, 10, 100, 2048, 4));
  SchedulingResult result;
  ASSERT_TRUE(scheduler_.ApplyRequest(request, &result).ok());
  EXPECT_EQ(TotalAssigned(result), 4);
  EXPECT_TRUE(result.revocations.empty());
  EXPECT_TRUE(scheduler_.CheckInvariants());
}

TEST_F(SchedulerTest, QueuesWhenClusterFullThenGrantsOnRelease) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(2)).ok());
  // App1 takes the whole cluster: 6 machines x 4 units of 1 core/2GB.
  ResourceRequest big;
  big.app = AppId(1);
  big.units.push_back(MakeUnit(0, 10, 100, 2048, 24));
  SchedulingResult result;
  ASSERT_TRUE(scheduler_.ApplyRequest(big, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 24);

  // App2 asks for 2 units; nothing free -> queued.
  ResourceRequest small;
  small.app = AppId(2);
  small.units.push_back(MakeUnit(0, 10, 100, 2048, 2));
  result.Clear();
  ASSERT_TRUE(scheduler_.ApplyRequest(small, &result).ok());
  EXPECT_EQ(TotalAssigned(result), 0);
  EXPECT_EQ(scheduler_.locality_tree().TotalWaitingUnits(), 2);

  // App1 releases 3 units on machine 0 -> App2 gets its 2.
  result.Clear();
  ASSERT_TRUE(
      scheduler_.Release(AppId(1), 0, MachineId(0), 3, &result).ok());
  EXPECT_EQ(TotalAssigned(result), 2);
  for (const Assignment& a : result.assignments) {
    EXPECT_EQ(a.app, AppId(2));
    EXPECT_EQ(a.machine, MachineId(0));
  }
  EXPECT_TRUE(scheduler_.CheckInvariants());
}

TEST_F(SchedulerTest, MachineLocalityPreferenceWins) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  ResourceRequest request;
  request.app = AppId(1);
  UnitRequestDelta unit = MakeUnit(0, 10, 100, 2048, 4);
  // Prefer 2 units on a specific machine.
  std::string host = topo_.machine(MachineId(3)).hostname;
  unit.hints.push_back({LocalityLevel::kMachine, host, 2});
  request.units.push_back(unit);
  SchedulingResult result;
  ASSERT_TRUE(scheduler_.ApplyRequest(request, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 4);
  int64_t on_preferred = 0;
  for (const Assignment& a : result.assignments) {
    if (a.machine == MachineId(3)) on_preferred += a.count;
  }
  EXPECT_GE(on_preferred, 2);
  EXPECT_TRUE(scheduler_.CheckInvariants());
}

TEST_F(SchedulerTest, HigherPriorityAppGetsFreedResourcesFirst) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(2)).ok());
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(3)).ok());
  // Fill the cluster with app1.
  ResourceRequest fill;
  fill.app = AppId(1);
  fill.units.push_back(MakeUnit(0, 5, 400, 8192, 6));
  SchedulingResult result;
  ASSERT_TRUE(scheduler_.ApplyRequest(fill, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 6);

  // Low-priority app2 queues first, high-priority app3 queues second.
  ResourceRequest low;
  low.app = AppId(2);
  low.units.push_back(MakeUnit(0, 1, 400, 8192, 1));
  result.Clear();
  ASSERT_TRUE(scheduler_.ApplyRequest(low, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 0);

  ResourceRequest high;
  high.app = AppId(3);
  high.units.push_back(MakeUnit(0, 9, 400, 8192, 1));
  result.Clear();
  ASSERT_TRUE(scheduler_.ApplyRequest(high, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 0);

  result.Clear();
  ASSERT_TRUE(
      scheduler_.Release(AppId(1), 0, MachineId(2), 1, &result).ok());
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].app, AppId(3));
}

TEST_F(SchedulerTest, MachineWaiterBeatsClusterWaiterAtSamePriority) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(2)).ok());
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(3)).ok());
  ResourceRequest fill;
  fill.app = AppId(1);
  fill.units.push_back(MakeUnit(0, 5, 400, 8192, 6));
  SchedulingResult result;
  ASSERT_TRUE(scheduler_.ApplyRequest(fill, &result).ok());

  // App2 waits at cluster level (enqueued first).
  ResourceRequest cluster_wait;
  cluster_wait.app = AppId(2);
  cluster_wait.units.push_back(MakeUnit(0, 7, 400, 8192, 1));
  result.Clear();
  ASSERT_TRUE(scheduler_.ApplyRequest(cluster_wait, &result).ok());

  // App3 waits specifically on machine 4 (same priority, enqueued later).
  ResourceRequest machine_wait;
  machine_wait.app = AppId(3);
  UnitRequestDelta unit = MakeUnit(0, 7, 400, 8192, 1);
  unit.hints.push_back(
      {LocalityLevel::kMachine, topo_.machine(MachineId(4)).hostname, 1});
  machine_wait.units.push_back(unit);
  result.Clear();
  ASSERT_TRUE(scheduler_.ApplyRequest(machine_wait, &result).ok());

  result.Clear();
  ASSERT_TRUE(
      scheduler_.Release(AppId(1), 0, MachineId(4), 1, &result).ok());
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].app, AppId(3))
      << "machine-level waiter must beat cluster-level waiter";
}

TEST_F(SchedulerTest, NegativeDeltaShrinksOutstandingAsk) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(2)).ok());
  ResourceRequest fill;
  fill.app = AppId(1);
  fill.units.push_back(MakeUnit(0, 5, 400, 8192, 6));
  SchedulingResult result;
  ASSERT_TRUE(scheduler_.ApplyRequest(fill, &result).ok());

  ResourceRequest ask;
  ask.app = AppId(2);
  ask.units.push_back(MakeUnit(0, 5, 100, 2048, 10));
  result.Clear();
  ASSERT_TRUE(scheduler_.ApplyRequest(ask, &result).ok());
  EXPECT_EQ(scheduler_.locality_tree().TotalWaitingUnits(), 10);

  // Incremental shrink: -6 (no def needed on subsequent updates).
  ResourceRequest shrink;
  shrink.app = AppId(2);
  UnitRequestDelta delta;
  delta.slot_id = 0;
  delta.total_count_delta = -6;
  shrink.units.push_back(delta);
  result.Clear();
  ASSERT_TRUE(scheduler_.ApplyRequest(shrink, &result).ok());
  EXPECT_EQ(scheduler_.locality_tree().TotalWaitingUnits(), 4);
  EXPECT_TRUE(scheduler_.CheckInvariants());
}

TEST_F(SchedulerTest, MachineDownRevokesAndMigrates) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  ResourceRequest request;
  request.app = AppId(1);
  request.units.push_back(MakeUnit(0, 5, 100, 2048, 4));
  SchedulingResult result;
  ASSERT_TRUE(scheduler_.ApplyRequest(request, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 4);
  MachineId victim = result.assignments[0].machine;
  int64_t on_victim = 0;
  for (const Assignment& a : result.assignments) {
    if (a.machine == victim) on_victim += a.count;
  }

  result.Clear();
  scheduler_.SetMachineOffline(victim, &result);
  int64_t revoked = 0;
  for (const Revocation& r : result.revocations) {
    EXPECT_EQ(r.reason, RevocationReason::kMachineDown);
    revoked += r.count;
  }
  EXPECT_EQ(revoked, on_victim);
  // Replacement grants must land on other machines.
  int64_t replaced = 0;
  for (const Assignment& a : result.assignments) {
    EXPECT_NE(a.machine, victim);
    replaced += a.count;
  }
  EXPECT_EQ(replaced, on_victim);
  EXPECT_TRUE(scheduler_.CheckInvariants());
}

TEST_F(SchedulerTest, AvoidListExcludesMachine) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  ResourceRequest request;
  request.app = AppId(1);
  UnitRequestDelta unit = MakeUnit(0, 5, 400, 8192, 6);
  unit.avoid_add.push_back(topo_.machine(MachineId(0)).hostname);
  request.units.push_back(unit);
  SchedulingResult result;
  ASSERT_TRUE(scheduler_.ApplyRequest(request, &result).ok());
  EXPECT_EQ(TotalAssigned(result), 5) << "machine 0 must be avoided";
  for (const Assignment& a : result.assignments) {
    EXPECT_NE(a.machine, MachineId(0));
  }
}

TEST_F(SchedulerTest, QuotaPreemptionReclaimsGuarantee) {
  Scheduler::Options options;
  Scheduler scheduler(&topo_, options);
  // Two groups, each guaranteed half the cluster (3 machines' worth).
  ASSERT_TRUE(
      scheduler.CreateQuotaGroup("a", ResourceVector(1200, 24576)).ok());
  ASSERT_TRUE(
      scheduler.CreateQuotaGroup("b", ResourceVector(1200, 24576)).ok());
  ASSERT_TRUE(scheduler.RegisterApp(AppId(1), "a").ok());
  ASSERT_TRUE(scheduler.RegisterApp(AppId(2), "b").ok());

  // Group A is idle, so app2 (group B) borrows the whole cluster.
  ResourceRequest borrow;
  borrow.app = AppId(2);
  borrow.units.push_back(MakeUnit(0, 5, 400, 8192, 6));
  SchedulingResult result;
  ASSERT_TRUE(scheduler.ApplyRequest(borrow, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 6);

  // Group A wakes up and claims its guarantee: quota preemption must
  // revoke from B.
  ResourceRequest claim;
  claim.app = AppId(1);
  claim.units.push_back(MakeUnit(0, 5, 400, 8192, 2));
  result.Clear();
  ASSERT_TRUE(scheduler.ApplyRequest(claim, &result).ok());
  EXPECT_EQ(TotalAssigned(result), 2);
  int64_t preempted = 0;
  for (const Revocation& r : result.revocations) {
    EXPECT_EQ(r.reason, RevocationReason::kPreemptQuota);
    EXPECT_EQ(r.app, AppId(2));
    preempted += r.count;
  }
  EXPECT_GE(preempted, 2);
  EXPECT_TRUE(scheduler.CheckInvariants());
}

TEST_F(SchedulerTest, PriorityPreemptionWithinGroup) {
  Scheduler::Options options;
  Scheduler scheduler(&topo_, options);
  ASSERT_TRUE(
      scheduler.CreateQuotaGroup("g", ResourceVector(2400, 49152)).ok());
  ASSERT_TRUE(scheduler.RegisterApp(AppId(1), "g").ok());
  ASSERT_TRUE(scheduler.RegisterApp(AppId(2), "g").ok());

  ResourceRequest fill;
  fill.app = AppId(1);
  fill.units.push_back(MakeUnit(0, /*priority=*/1, 400, 8192, 6));
  SchedulingResult result;
  ASSERT_TRUE(scheduler.ApplyRequest(fill, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 6);

  ResourceRequest urgent;
  urgent.app = AppId(2);
  urgent.units.push_back(MakeUnit(0, /*priority=*/9, 400, 8192, 1));
  result.Clear();
  ASSERT_TRUE(scheduler.ApplyRequest(urgent, &result).ok());
  EXPECT_EQ(TotalAssigned(result), 1);
  ASSERT_FALSE(result.revocations.empty());
  EXPECT_EQ(result.revocations[0].reason,
            RevocationReason::kPreemptPriority);
  EXPECT_EQ(result.revocations[0].app, AppId(1));
}

TEST_F(SchedulerTest, UnregisterAppFreesEverything) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(2)).ok());
  ResourceRequest fill;
  fill.app = AppId(1);
  fill.units.push_back(MakeUnit(0, 5, 400, 8192, 6));
  SchedulingResult result;
  ASSERT_TRUE(scheduler_.ApplyRequest(fill, &result).ok());

  ResourceRequest wait;
  wait.app = AppId(2);
  wait.units.push_back(MakeUnit(0, 5, 400, 8192, 3));
  result.Clear();
  ASSERT_TRUE(scheduler_.ApplyRequest(wait, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 0);

  result.Clear();
  ASSERT_TRUE(scheduler_.UnregisterApp(AppId(1), &result).ok());
  // App2's waiting demand is served from the freed machines.
  int64_t granted = 0;
  for (const Assignment& a : result.assignments) {
    EXPECT_EQ(a.app, AppId(2));
    granted += a.count;
  }
  EXPECT_EQ(granted, 3);
  EXPECT_EQ(scheduler_.GrantedTo(AppId(1)), ResourceVector());
  EXPECT_TRUE(scheduler_.CheckInvariants());
}

TEST_F(SchedulerTest, MultiDimensionalFitRequiresAllDimensions) {
  ASSERT_TRUE(scheduler_.RegisterApp(AppId(1)).ok());
  // Memory-heavy unit: CPU fits 4x but memory only 2x per machine.
  ResourceRequest request;
  request.app = AppId(1);
  request.units.push_back(MakeUnit(0, 5, 100, 4096, 100));
  SchedulingResult result;
  ASSERT_TRUE(scheduler_.ApplyRequest(request, &result).ok());
  // 6 machines x min(400/100, 8192/4096) = 6 x 2 = 12.
  EXPECT_EQ(TotalAssigned(result), 12);
  EXPECT_EQ(scheduler_.locality_tree().TotalWaitingUnits(), 88);
}

TEST_F(SchedulerTest, VirtualResourceLimitsConcurrency) {
  // Register a virtual dimension and cap it at 2 per machine.
  auto dim_or = cluster::DimensionRegistry::Global().Register("ASortRes");
  ASSERT_TRUE(dim_or.ok());
  cluster::DimensionId dim = dim_or.value();

  ClusterTopology::Options topo_options;
  topo_options.racks = 1;
  topo_options.machines_per_rack = 2;
  ResourceVector capacity(400, 8192);
  capacity.Set(dim, 2);
  topo_options.machine_capacity = capacity;
  ClusterTopology topo = ClusterTopology::Build(topo_options);
  Scheduler scheduler(&topo);
  ASSERT_TRUE(scheduler.RegisterApp(AppId(1)).ok());

  ResourceRequest request;
  request.app = AppId(1);
  UnitRequestDelta unit = MakeUnit(0, 5, 10, 128, 10);
  unit.def.resources.Set(dim, 1);
  request.units.push_back(unit);
  SchedulingResult result;
  ASSERT_TRUE(scheduler.ApplyRequest(request, &result).ok());
  // Plenty of CPU/memory, but only 2 virtual tokens per machine.
  EXPECT_EQ(TotalAssigned(result), 4);
}

/// App 1 fills the cluster with (100, 2048) units; app 2 queues two
/// (200, 4096) units at priority 10 and app 3 two (100, 2048) units at
/// priority 5. Single-unit releases then free (100, 2048) on machines 0,
/// 1 and 2, and a second unit on machine 2.
void RunReleaseScenario(Scheduler* scheduler) {
  for (int64_t app = 1; app <= 3; ++app) {
    ASSERT_TRUE(scheduler->RegisterApp(AppId(app)).ok());
  }
  SchedulingResult result;
  ResourceRequest fill;
  fill.app = AppId(1);
  fill.units.push_back(MakeUnit(0, 10, 100, 2048, 24));
  ASSERT_TRUE(scheduler->ApplyRequest(fill, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 24);
  ResourceRequest wide;
  wide.app = AppId(2);
  wide.units.push_back(MakeUnit(0, 10, 200, 4096, 2));
  ASSERT_TRUE(scheduler->ApplyRequest(wide, &result).ok());
  ResourceRequest narrow;
  narrow.app = AppId(3);
  narrow.units.push_back(MakeUnit(0, 5, 100, 2048, 2));
  ASSERT_TRUE(scheduler->ApplyRequest(narrow, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 24);

  // Machines 0 and 1: app 2 is visited and rejected, app 3 gets the
  // freed unit, and free (0) then fits no live shape.
  for (int64_t m : {0, 1}) {
    result.Clear();
    ASSERT_TRUE(scheduler->Release(AppId(1), 0, MachineId(m), 1, &result)
                    .ok());
    ASSERT_EQ(TotalAssigned(result), 1);
    EXPECT_EQ(result.assignments[0].app, AppId(3));
  }
  // Machine 2: app 3 is satisfied, so (100, 2048) fits no live shape and
  // the pass visits nobody. A second freed unit then fits app 2.
  result.Clear();
  ASSERT_TRUE(
      scheduler->Release(AppId(1), 0, MachineId(2), 1, &result).ok());
  EXPECT_EQ(TotalAssigned(result), 0);
  ASSERT_TRUE(
      scheduler->Release(AppId(1), 0, MachineId(2), 1, &result).ok());
  ASSERT_EQ(TotalAssigned(result), 1);
  EXPECT_EQ(result.assignments[0].app, AppId(2));
  EXPECT_TRUE(scheduler->CheckInvariants());
}

TEST(SchedulerPassTest, CandidatesVisitedRepeatsExactly) {
  ClusterTopology topo = SmallCluster();
  uint64_t visited[2] = {0, 0};
  for (uint64_t& count : visited) {
    Scheduler scheduler(&topo);
    obs::MetricsRegistry metrics;
    scheduler.set_metrics(&metrics);
    RunReleaseScenario(&scheduler);
    EXPECT_FALSE(metrics.is_realtime("sched.candidates_visited"));
    count = metrics.counters().at("sched.candidates_visited")->value();
  }
  // Two candidates on machine 0, two on machine 1, none on machine 2's
  // first pass and one on its second.
  EXPECT_EQ(visited[0], 5u);
  EXPECT_EQ(visited[1], visited[0]);
}

TEST(SchedulerPassTest, PassEndedByNoFittingShapeIsAuditedAsNoFreeCapacity) {
  ClusterTopology topo = SmallCluster();
  Scheduler scheduler(&topo);
  obs::AuditLog log(nullptr, nullptr);
  scheduler.set_audit(&log);
  RunReleaseScenario(&scheduler);

  std::vector<const obs::DecisionRecord*> passes;
  std::vector<obs::DecisionRecord> dump = log.Snapshot();
  for (const obs::DecisionRecord& r : dump) {
    if (r.kind == obs::DecisionKind::kPass) passes.push_back(&r);
  }
  // Exactly one pass record per release, each listing only the
  // candidates its walk visited.
  ASSERT_EQ(passes.size(), 4u);
  for (int m : {0, 1}) {
    const obs::DecisionRecord& granting = *passes[m];
    EXPECT_EQ(granting.machine, m);
    EXPECT_EQ(granting.reason, obs::RejectReason::kNone);
    ASSERT_EQ(granting.candidates.size(), 2u);
    EXPECT_EQ(granting.candidates[0].app, 2);
    EXPECT_EQ(granting.candidates[0].reason,
              obs::RejectReason::kNoFreeCapacity);
    EXPECT_EQ(granting.candidates[1].app, 3);
    EXPECT_EQ(granting.candidates[1].granted, 1);
  }
  const obs::DecisionRecord& pruned = *passes[2];
  EXPECT_EQ(pruned.machine, 2);
  EXPECT_EQ(pruned.reason, obs::RejectReason::kNoFreeCapacity);
  EXPECT_TRUE(pruned.candidates.empty());
  EXPECT_EQ(passes[3]->machine, 2);
  EXPECT_EQ(passes[3]->reason, obs::RejectReason::kNone);
  ASSERT_EQ(passes[3]->candidates.size(), 1u);
  EXPECT_EQ(passes[3]->candidates[0].granted, 1);
  // Record ids stay dense: the pruned pass committed its one record.
  for (size_t i = 0; i < dump.size(); ++i) EXPECT_EQ(dump[i].id, i + 1);
}

}  // namespace
}  // namespace fuxi::resource
