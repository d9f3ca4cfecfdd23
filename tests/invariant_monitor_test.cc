#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/invariant_monitor.h"
#include "runtime/sim_cluster.h"

namespace fuxi::chaos {
namespace {

/// Drives the sustained-condition tracker through the orphan check: a
/// process launched straight onto a ProcessHost for an app the liveness
/// callback reports as finished is a stray, and it stays a stray until
/// the test kills it. The monitor is never Start()ed; each test calls
/// CheckNow() at the virtual times it wants a sweep, so every window
/// boundary is exact.
class InvariantMonitorTest : public ::testing::Test {
 protected:
  static constexpr double kGrace = 3.0;

  InvariantMonitorTest() : cluster_(ClusterOptions()) {
    cluster_.Start();
    cluster_.RunFor(2.0);  // a primary is elected: the orphan clock runs
  }

  static runtime::SimClusterOptions ClusterOptions() {
    runtime::SimClusterOptions options;
    options.topology.racks = 1;
    options.topology.machines_per_rack = 2;
    options.topology.machine_capacity = cluster::ResourceVector(400, 8192);
    // No allocation-report reconcile: nothing but the test may touch the
    // strays.
    options.agent.allocation_report_every = 0;
    return options;
  }

  static InvariantMonitorOptions MonitorOptions() {
    InvariantMonitorOptions options;
    options.orphan_grace = kGrace;
    return options;
  }

  /// Installs a liveness callback under which no app is live.
  void AllAppsFinished(InvariantMonitor* monitor) {
    monitor->set_app_liveness([](AppId) { return false; });
  }

  WorkerId LaunchStray(int machine, int app, uint32_t slot = 0) {
    return cluster_.host(MachineId(machine))
        ->Launch(AppId(app), slot, NodeId(900),
                 cluster::ResourceVector(10, 64), nullptr, Now());
  }

  void KillStray(int machine, WorkerId worker) {
    ASSERT_TRUE(cluster_.host(MachineId(machine))->Kill(worker));
  }

  double Now() { return cluster_.sim().Now(); }

  static std::string Since(double t) {
    return " (sustained since t=" + std::to_string(t) + ")";
  }

  /// The " w<id>@am<owner> since t=<start>" entry of one stray.
  static std::string Entry(WorkerId worker, double started_at) {
    std::ostringstream out;
    out << " w" << worker.value() << "@am900 since t=" << started_at;
    return out.str();
  }

  runtime::SimCluster cluster_;
};

TEST_F(InvariantMonitorTest, FiresOnlyAfterGraceOfContinuousBadness) {
  InvariantMonitor monitor(&cluster_, MonitorOptions());
  AllAppsFinished(&monitor);
  double t0 = Now();
  LaunchStray(0, 50);
  monitor.CheckNow();  // the window opens at t0
  cluster_.RunFor(kGrace - 0.5);
  monitor.CheckNow();
  EXPECT_TRUE(monitor.violations().empty()) << monitor.Summary();
  cluster_.RunFor(0.5);
  monitor.CheckNow();
  ASSERT_EQ(monitor.violations().size(), 1u) << monitor.Summary();
  EXPECT_EQ(monitor.violations()[0].invariant, "orphan-processes:m0:app50");
  EXPECT_DOUBLE_EQ(monitor.violations()[0].time, t0 + kGrace);
}

TEST_F(InvariantMonitorTest, InterruptedBadnessRestartsTheWindow) {
  InvariantMonitor monitor(&cluster_, MonitorOptions());
  AllAppsFinished(&monitor);
  WorkerId first = LaunchStray(1, 50);
  monitor.CheckNow();
  cluster_.RunFor(kGrace - 1.0);
  KillStray(1, first);
  monitor.CheckNow();  // condition clears: the tracker is dropped
  double t1 = Now();
  LaunchStray(1, 50);
  monitor.CheckNow();  // a new window opens at t1
  cluster_.RunFor(kGrace - 0.5);  // past t0 + grace, short of t1 + grace
  monitor.CheckNow();
  EXPECT_TRUE(monitor.violations().empty()) << monitor.Summary();
  cluster_.RunFor(0.5);
  monitor.CheckNow();
  ASSERT_EQ(monitor.violations().size(), 1u) << monitor.Summary();
  EXPECT_EQ(monitor.violations()[0].invariant, "orphan-processes:m1:app50");
  EXPECT_NE(monitor.violations()[0].detail.find(Since(t1)),
            std::string::npos)
      << monitor.violations()[0].detail;
}

TEST_F(InvariantMonitorTest, FiresOncePerEpisodeAndReArmsAfterClearing) {
  InvariantMonitor monitor(&cluster_, MonitorOptions());
  AllAppsFinished(&monitor);
  WorkerId stray = LaunchStray(0, 50);
  monitor.CheckNow();
  for (int i = 0; i < 10; ++i) {  // well past the grace, still bad
    cluster_.RunFor(1.0);
    monitor.CheckNow();
  }
  ASSERT_EQ(monitor.violations().size(), 1u) << monitor.Summary();

  KillStray(0, stray);
  monitor.CheckNow();  // episode over
  double t1 = Now();
  LaunchStray(0, 50);
  monitor.CheckNow();
  cluster_.RunFor(kGrace);
  monitor.CheckNow();
  ASSERT_EQ(monitor.violations().size(), 2u) << monitor.Summary();
  EXPECT_EQ(monitor.violations()[1].invariant, "orphan-processes:m0:app50");
  EXPECT_NE(monitor.violations()[1].detail.find(Since(t1)),
            std::string::npos)
      << monitor.violations()[1].detail;
}

TEST_F(InvariantMonitorTest, ViolationTextIsTheObservationAtFiringTime) {
  InvariantMonitor monitor(&cluster_, MonitorOptions());
  AllAppsFinished(&monitor);
  double t0 = Now();
  WorkerId first = LaunchStray(0, 50, /*slot=*/0);
  monitor.CheckNow();
  cluster_.RunFor(1.0);
  // Two more strays of the same app, the newer one on the lower slot:
  // the text lists workers in id order, not slot order.
  double t1 = Now();
  WorkerId second = LaunchStray(0, 50, /*slot=*/2);
  WorkerId third = LaunchStray(0, 50, /*slot=*/1);
  monitor.CheckNow();
  cluster_.RunFor(1.0);
  KillStray(0, first);  // the app still has strays: the window holds
  monitor.CheckNow();
  cluster_.RunFor(kGrace - 2.0);
  monitor.CheckNow();
  ASSERT_EQ(monitor.violations().size(), 1u) << monitor.Summary();
  EXPECT_EQ(monitor.violations()[0].invariant, "orphan-processes:m0:app50");
  EXPECT_EQ(monitor.violations()[0].detail,
            "processes of finished app 50 still run on machine 0:" +
                Entry(second, t1) + Entry(third, t1) + Since(t0));
}

TEST_F(InvariantMonitorTest, MaxViolationsCapHolds) {
  InvariantMonitorOptions options = MonitorOptions();
  options.max_violations = 2;
  InvariantMonitor monitor(&cluster_, options);
  AllAppsFinished(&monitor);
  for (int app = 50; app < 54; ++app) LaunchStray(0, app);
  monitor.CheckNow();
  cluster_.RunFor(kGrace);
  monitor.CheckNow();  // four conditions fire in one sweep
  monitor.Report("external", "ignored past the cap");
  ASSERT_EQ(monitor.violations().size(), 2u) << monitor.Summary();
  EXPECT_EQ(monitor.violations()[0].invariant, "orphan-processes:m0:app50");
  EXPECT_EQ(monitor.violations()[1].invariant, "orphan-processes:m0:app51");
}

TEST_F(InvariantMonitorTest, OrphanTrackerIsDroppedOnceItsAppsStraysDie) {
  InvariantMonitor monitor(&cluster_, MonitorOptions());
  AllAppsFinished(&monitor);
  double t0 = Now();
  LaunchStray(0, 50);
  WorkerId other = LaunchStray(0, 51);
  LaunchStray(1, 51);
  monitor.CheckNow();
  cluster_.RunFor(1.0);
  KillStray(0, other);
  monitor.CheckNow();  // m0/app51 has no strays left: its tracker goes
  double t1 = Now();
  LaunchStray(0, 51);
  monitor.CheckNow();
  cluster_.RunFor(kGrace - 1.0);
  monitor.CheckNow();
  // m0/app50 and m1/app51 ran since t0 and fire; the re-launched
  // m0/app51 is only kGrace - 1 into its new window.
  ASSERT_EQ(monitor.violations().size(), 2u) << monitor.Summary();
  EXPECT_EQ(monitor.violations()[0].invariant, "orphan-processes:m0:app50");
  EXPECT_EQ(monitor.violations()[1].invariant, "orphan-processes:m1:app51");
  EXPECT_NE(monitor.violations()[1].detail.find(Since(t0)),
            std::string::npos);
  cluster_.RunFor(1.0);
  monitor.CheckNow();
  ASSERT_EQ(monitor.violations().size(), 3u) << monitor.Summary();
  EXPECT_EQ(monitor.violations()[2].invariant, "orphan-processes:m0:app51");
  EXPECT_NE(monitor.violations()[2].detail.find(Since(t1)),
            std::string::npos)
      << monitor.violations()[2].detail;
}

TEST_F(InvariantMonitorTest, WorkersOfLiveAppsAreNotStrays) {
  InvariantMonitor monitor(&cluster_, MonitorOptions());
  std::set<AppId> live = {AppId(60)};
  monitor.set_app_liveness([&live](AppId app) { return live.count(app) > 0; });
  LaunchStray(0, 60);  // a live app's worker is no stray
  monitor.CheckNow();
  cluster_.RunFor(kGrace + 1.0);
  monitor.CheckNow();
  EXPECT_TRUE(monitor.violations().empty()) << monitor.Summary();
  EXPECT_EQ(monitor.heavy_checks_run(), 2u);
}

}  // namespace
}  // namespace fuxi::chaos
