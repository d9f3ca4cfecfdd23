// Tests for the extension features the paper lists as practical
// considerations / future work: starvation aging (§7) and the Cgroup
// overload-kill policy (§2.2 isolation rule 2).

#include <gtest/gtest.h>

#include "job/job_runtime.h"
#include "resource/scheduler.h"
#include "runtime/sim_cluster.h"

namespace fuxi {
namespace {

using cluster::ClusterTopology;
using cluster::ResourceVector;

ClusterTopology SmallTopo() {
  ClusterTopology::Options options;
  options.racks = 1;
  options.machines_per_rack = 2;
  options.machine_capacity = ResourceVector(400, 8192);
  return ClusterTopology::Build(options);
}

resource::ResourceRequest MakeAsk(AppId app, resource::Priority priority,
                                  int64_t count) {
  resource::ResourceRequest request;
  request.app = app;
  resource::UnitRequestDelta unit;
  unit.slot_id = 0;
  unit.has_def = true;
  unit.def.slot_id = 0;
  unit.def.priority = priority;
  unit.def.resources = ResourceVector(400, 8192);
  unit.total_count_delta = count;
  request.units.push_back(unit);
  return request;
}

TEST(StarvationAgingTest, LongWaiterEventuallyBeatsHigherPriority) {
  ClusterTopology topo = SmallTopo();
  resource::SchedulerOptions options;
  options.starvation_age_after = 10.0;
  options.starvation_max_boost = 3;
  options.enable_preemption = false;
  resource::Scheduler scheduler(&topo, options);
  ASSERT_TRUE(scheduler.RegisterApp(AppId(1)).ok());
  ASSERT_TRUE(scheduler.RegisterApp(AppId(2)).ok());
  ASSERT_TRUE(scheduler.RegisterApp(AppId(3)).ok());

  resource::SchedulingResult result;
  // App1 fills the cluster.
  ASSERT_TRUE(scheduler.ApplyRequest(MakeAsk(AppId(1), 5, 2), &result).ok());
  ASSERT_EQ(result.assignments.size(), 2u);
  // App2 (priority 1) waits FIRST; app3 (priority 3) waits second.
  result.Clear();
  ASSERT_TRUE(scheduler.ApplyRequest(MakeAsk(AppId(2), 1, 1), &result).ok());
  ASSERT_TRUE(scheduler.ApplyRequest(MakeAsk(AppId(3), 3, 1), &result).ok());
  ASSERT_TRUE(result.assignments.empty());

  // Without aging, app3 would win any free-up. Age app2 past app3:
  // three sweeps, +1 each.
  EXPECT_EQ(scheduler.AgeWaitingDemands(10.1), 2u);  // both aged once
  EXPECT_EQ(scheduler.AgeWaitingDemands(20.2), 2u);
  EXPECT_EQ(scheduler.AgeWaitingDemands(30.3), 2u);
  // app2: 1+3=4 (capped by max_boost 3); app3: 3+3=6... both aged; cap
  // applies per demand. app2 -> 4, app3 -> 6: app3 still ahead. Keep
  // the scenario honest: only app2 was starving long enough. Rebuild.
  resource::Scheduler fresh(&topo, options);
  ASSERT_TRUE(fresh.RegisterApp(AppId(1)).ok());
  ASSERT_TRUE(fresh.RegisterApp(AppId(2)).ok());
  ASSERT_TRUE(fresh.RegisterApp(AppId(3)).ok());
  result.Clear();
  ASSERT_TRUE(fresh.ApplyRequest(MakeAsk(AppId(1), 5, 2), &result).ok());
  result.Clear();
  ASSERT_TRUE(fresh.ApplyRequest(MakeAsk(AppId(2), 1, 1), &result).ok());
  // app2 starves through three aging periods (effective 1 -> 4)...
  EXPECT_GT(fresh.AgeWaitingDemands(10.1), 0u);
  EXPECT_GT(fresh.AgeWaitingDemands(20.2), 0u);
  EXPECT_GT(fresh.AgeWaitingDemands(30.3), 0u);
  // ...and only NOW does app3 (priority 3) arrive.
  ASSERT_TRUE(fresh.ApplyRequest(MakeAsk(AppId(3), 3, 1), &result).ok());
  ASSERT_TRUE(result.assignments.empty());

  result.Clear();
  ASSERT_TRUE(fresh.Release(AppId(1), 0, MachineId(0), 1, &result).ok());
  ASSERT_EQ(result.assignments.size(), 1u);
  EXPECT_EQ(result.assignments[0].app, AppId(2))
      << "the aged waiter must beat the younger higher-priority ask";
  EXPECT_TRUE(fresh.CheckInvariants());
}

TEST(StarvationAgingTest, BoostIsCappedAndDisabledByDefault) {
  ClusterTopology topo = SmallTopo();
  resource::Scheduler scheduler(&topo);  // aging off by default
  ASSERT_TRUE(scheduler.RegisterApp(AppId(1)).ok());
  resource::SchedulingResult result;
  ASSERT_TRUE(scheduler.ApplyRequest(MakeAsk(AppId(1), 5, 9), &result).ok());
  EXPECT_EQ(scheduler.AgeWaitingDemands(1e9), 0u);

  resource::SchedulerOptions options;
  options.starvation_age_after = 1.0;
  options.starvation_max_boost = 2;
  resource::Scheduler aging(&topo, options);
  ASSERT_TRUE(aging.RegisterApp(AppId(1)).ok());
  ASSERT_TRUE(aging.RegisterApp(AppId(2)).ok());
  result.Clear();
  ASSERT_TRUE(aging.ApplyRequest(MakeAsk(AppId(1), 5, 2), &result).ok());
  ASSERT_TRUE(aging.ApplyRequest(MakeAsk(AppId(2), 1, 1), &result).ok());
  EXPECT_EQ(aging.AgeWaitingDemands(2), 1u);
  EXPECT_EQ(aging.AgeWaitingDemands(4), 1u);
  // Cap reached: no further boosts.
  EXPECT_EQ(aging.AgeWaitingDemands(6), 0u);
  EXPECT_TRUE(aging.CheckInvariants());
}

TEST(StarvationAgingTest, AgingSweepPlacesBoostedDemandWhenSpaceExists) {
  ClusterTopology topo = SmallTopo();
  resource::SchedulerOptions options;
  options.starvation_age_after = 5.0;
  resource::Scheduler scheduler(&topo, options);
  ASSERT_TRUE(scheduler.RegisterApp(AppId(1)).ok());
  resource::SchedulingResult result;
  // A demand that avoids every machine cannot be placed...
  resource::ResourceRequest ask = MakeAsk(AppId(1), 1, 1);
  ask.units[0].avoid_add.push_back(topo.machine(MachineId(0)).hostname);
  ask.units[0].avoid_add.push_back(topo.machine(MachineId(1)).hostname);
  ASSERT_TRUE(scheduler.ApplyRequest(ask, &result).ok());
  ASSERT_TRUE(result.assignments.empty());
  // ...until the avoid list is lifted; the next aging sweep re-places.
  resource::ResourceRequest lift;
  lift.app = AppId(1);
  resource::UnitRequestDelta delta;
  delta.slot_id = 0;
  delta.avoid_remove.push_back(topo.machine(MachineId(0)).hostname);
  lift.units.push_back(delta);
  ASSERT_TRUE(scheduler.ApplyRequest(lift, &result).ok());
  // (ApplyRequest already re-placed it — aging also would have.)
  int64_t granted = 0;
  for (const auto& grant : scheduler.GrantsOf(AppId(1))) {
    granted += grant.count;
  }
  EXPECT_EQ(granted, 1);
}

// ------------------------------------------------------------- overload

runtime::SimClusterOptions OverloadClusterOptions() {
  runtime::SimClusterOptions options;
  options.topology.racks = 1;
  options.topology.machines_per_rack = 4;
  options.topology.machine_capacity = ResourceVector(400, 8192);
  return options;
}

TEST(OverloadPolicyTest, KillsTheWorstOffenderOnly) {
  runtime::SimCluster cluster(OverloadClusterOptions());
  job::JobRuntime runtime(&cluster);
  cluster.Start();
  cluster.RunFor(2.0);
  job::JobDescription desc;
  desc.name = "hog";
  job::TaskConfig task;
  task.name = "T";
  task.instances = 400;
  task.max_workers = 8;
  task.unit = ResourceVector(100, 2048);
  task.instance_seconds = 5.0;
  desc.tasks.push_back(task);
  auto job = runtime.Submit(desc);
  ASSERT_TRUE(job.ok());
  cluster.RunFor(8.0);

  // Find a machine with at least two workers; one goes rogue and blows
  // way past its 2 GB limit, the other stays modestly over.
  MachineId machine;
  for (const cluster::Machine& m : cluster.topology().machines()) {
    if (cluster.host(m.id)->alive_count() >= 2) {
      machine = m.id;
      break;
    }
  }
  ASSERT_TRUE(machine.valid());
  auto procs = cluster.host(machine)->Alive();
  WorkerId rogue = procs[0]->id;
  WorkerId mild = procs[1]->id;
  ASSERT_TRUE(cluster.host(machine)->SetProcessUsage(
      rogue, ResourceVector(100, 7000)));
  ASSERT_TRUE(cluster.host(machine)->SetProcessUsage(
      mild, ResourceVector(100, 2500)));
  // 7000 + 2500 + others > 8192 -> overload; the rogue (5000 over) must
  // die, the mild offender (452 over) must survive.
  cluster.RunFor(3.0);
  EXPECT_EQ(cluster.host(machine)->Find(rogue), nullptr);
  EXPECT_NE(cluster.host(machine)->Find(mild), nullptr);
  EXPECT_GE(cluster.agent(machine)->workers_killed_for_overload(), 1u);
  // The job as a whole keeps going (instance requeued elsewhere).
  int64_t done_before = (*job)->stats().instances_done;
  cluster.RunFor(10.0);
  EXPECT_GT((*job)->stats().instances_done, done_before);
}

TEST(OverloadPolicyTest, NoKillWhenWithinCapacity) {
  runtime::SimCluster cluster(OverloadClusterOptions());
  job::JobRuntime runtime(&cluster);
  cluster.Start();
  cluster.RunFor(2.0);
  job::JobDescription desc;
  desc.name = "calm";
  job::TaskConfig task;
  task.name = "T";
  task.instances = 40;
  task.max_workers = 4;
  task.unit = ResourceVector(100, 2048);
  task.instance_seconds = 2.0;
  desc.tasks.push_back(task);
  auto job = runtime.Submit(desc);
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE(runtime.RunUntilAllFinished(120.0));
  for (const cluster::Machine& m : cluster.topology().machines()) {
    EXPECT_EQ(cluster.agent(m.id)->workers_killed_for_overload(), 0u);
  }
}

TEST(OverloadPolicyTest, ActualUsageAccounting) {
  agent::ProcessHost host(MachineId(0));
  WorkerId a = host.Launch(AppId(1), 0, NodeId(1),
                           ResourceVector(100, 1000), nullptr, 0);
  host.Launch(AppId(1), 0, NodeId(1), ResourceVector(100, 1000), nullptr,
              0);
  EXPECT_EQ(host.TotalActualUsage(), ResourceVector(200, 2000));
  ASSERT_TRUE(host.SetProcessUsage(a, ResourceVector(150, 3000)));
  EXPECT_EQ(host.TotalActualUsage(), ResourceVector(250, 4000));
  EXPECT_EQ(host.TotalUsage(), ResourceVector(200, 2000))
      << "limits are unchanged by actual-usage overrides";
  EXPECT_FALSE(host.SetProcessUsage(WorkerId(999), ResourceVector()));
}

}  // namespace
}  // namespace fuxi
