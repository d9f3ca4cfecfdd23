// Property suite for the resource scheduler: arbitrary interleavings of
// requests, releases, machine failures and preemption must preserve the
// cross-structure invariants (free + granted == capacity, queue/index
// consistency, non-negative pools).

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "cluster/topology.h"
#include "common/rng.h"
#include "resource/scheduler.h"

namespace fuxi::resource {
namespace {

using cluster::ClusterTopology;
using cluster::ResourceVector;

struct FuzzParams {
  uint64_t seed;
  bool quota;
  bool preemption;
  bool locality_tree;
};

// Without these gtest prints the struct's raw bytes, padding included,
// so the test names changed from build to build. PrintTo gives the
// readable form, "seed42_quota_preempt_tree" (the seed plus each enabled
// feature), which ctest lists as the case's name; gtest names the case
// by its seed, which is unique in the list below.
void PrintTo(const FuzzParams& p, std::ostream* os) {
  *os << "seed" << p.seed << (p.quota ? "_quota" : "")
      << (p.preemption ? "_preempt" : "")
      << (p.locality_tree ? "_tree" : "");
}

std::string FuzzName(const ::testing::TestParamInfo<FuzzParams>& info) {
  return std::to_string(info.param.seed);
}

class SchedulerFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(SchedulerFuzzTest, RandomOperationsPreserveInvariants) {
  const FuzzParams& params = GetParam();
  Rng rng(params.seed);

  ClusterTopology::Options topo_options;
  topo_options.racks = 3;
  topo_options.machines_per_rack = 4;
  topo_options.machine_capacity = ResourceVector(400, 8192);
  ClusterTopology topo = ClusterTopology::Build(topo_options);

  Scheduler::Options options;
  options.enable_quota = params.quota;
  options.enable_preemption = params.preemption;
  options.locality_tree = params.locality_tree;
  Scheduler scheduler(&topo, options);
  if (params.quota) {
    ASSERT_TRUE(
        scheduler.CreateQuotaGroup("g1", ResourceVector(2000, 40960)).ok());
    ASSERT_TRUE(
        scheduler.CreateQuotaGroup("g2", ResourceVector(2000, 40960)).ok());
  }
  constexpr int kApps = 6;
  for (int64_t a = 1; a <= kApps; ++a) {
    std::string group = params.quota ? (a % 2 == 0 ? "g1" : "g2") : "";
    ASSERT_TRUE(scheduler.RegisterApp(AppId(a), group).ok());
  }

  SchedulingResult result;
  for (int step = 0; step < 600; ++step) {
    AppId app(static_cast<int64_t>(1 + rng.Uniform(kApps)));
    switch (rng.Uniform(6)) {
      case 0:
      case 1: {  // incremental request (weighted toward this)
        ResourceRequest request;
        request.app = app;
        UnitRequestDelta unit;
        unit.slot_id = static_cast<uint32_t>(rng.Uniform(2));
        unit.has_def = true;
        unit.def.slot_id = unit.slot_id;
        unit.def.priority = static_cast<Priority>(rng.Uniform(5));
        unit.def.resources =
            ResourceVector(50 + 50 * static_cast<int64_t>(rng.Uniform(3)),
                           1024 * (1 + static_cast<int64_t>(rng.Uniform(4))));
        unit.total_count_delta = rng.UniformRange(-4, 8);
        if (rng.Bernoulli(0.3)) {
          MachineId m(static_cast<int64_t>(rng.Uniform(12)));
          unit.hints.push_back({LocalityLevel::kMachine,
                                topo.machine(m).hostname,
                                rng.UniformRange(1, 3)});
        }
        request.units.push_back(unit);
        Status s = scheduler.ApplyRequest(request, &result);
        // Redefining an existing slot with a different unit size is
        // fine; errors are only allowed for malformed input, which we
        // do not generate here.
        ASSERT_TRUE(s.ok()) << s.ToString();
        break;
      }
      case 2: {  // release something we hold
        auto grants = scheduler.GrantsOf(app);
        if (!grants.empty()) {
          const auto& grant = grants[rng.Uniform(grants.size())];
          int64_t count = rng.UniformRange(1, grant.count);
          ASSERT_TRUE(scheduler
                          .Release(app, grant.slot_id, grant.machine,
                                   count, &result)
                          .ok());
        }
        break;
      }
      case 3: {  // machine down / up
        MachineId m(static_cast<int64_t>(rng.Uniform(12)));
        if (scheduler.machine_state(m).online) {
          if (rng.Bernoulli(0.4)) scheduler.SetMachineOffline(m, &result);
        } else {
          scheduler.SetMachineOnline(m, &result);
        }
        break;
      }
      case 4: {  // capacity change (virtual resource reconfiguration)
        MachineId m(static_cast<int64_t>(rng.Uniform(12)));
        if (scheduler.machine_state(m).online && rng.Bernoulli(0.2)) {
          ResourceVector capacity(
              200 + 100 * static_cast<int64_t>(rng.Uniform(4)),
              4096 + 2048 * static_cast<int64_t>(rng.Uniform(4)));
          scheduler.SetMachineCapacity(m, capacity, &result);
        }
        break;
      }
      case 5: {  // app teardown + re-register
        if (rng.Bernoulli(0.05)) {
          ASSERT_TRUE(scheduler.UnregisterApp(app, &result).ok());
          std::string group =
              params.quota ? (app.value() % 2 == 0 ? "g1" : "g2") : "";
          ASSERT_TRUE(scheduler.RegisterApp(app, group).ok());
        }
        break;
      }
    }
    result.Clear();
    ASSERT_TRUE(scheduler.CheckInvariants())
        << "seed " << params.seed << " step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mix, SchedulerFuzzTest,
    ::testing::Values(FuzzParams{1, true, true, true},
                      FuzzParams{2, true, true, true},
                      FuzzParams{3, false, false, true},
                      FuzzParams{4, true, false, true},
                      FuzzParams{5, false, true, true},
                      FuzzParams{6, true, true, false},
                      FuzzParams{7, false, false, false},
                      FuzzParams{8, true, true, true},
                      FuzzParams{42, true, true, true},
                      FuzzParams{1337, true, true, true}),
    FuzzName);

/// Conservation property: under request/grant/release-only traffic (no
/// machine failures), granted + waiting always equals total demanded.
TEST(SchedulerConservationTest, UnitsNeverLeakOrDuplicate) {
  Rng rng(99);
  ClusterTopology::Options topo_options;
  topo_options.racks = 2;
  topo_options.machines_per_rack = 3;
  topo_options.machine_capacity = ResourceVector(400, 8192);
  ClusterTopology topo = ClusterTopology::Build(topo_options);
  Scheduler scheduler(&topo);
  ASSERT_TRUE(scheduler.RegisterApp(AppId(1)).ok());

  int64_t demanded = 0;  // net units ever asked for minus released
  SchedulingResult result;
  for (int step = 0; step < 300; ++step) {
    if (rng.Bernoulli(0.6)) {
      ResourceRequest request;
      request.app = AppId(1);
      UnitRequestDelta unit;
      unit.slot_id = 0;
      unit.has_def = true;
      unit.def.resources = ResourceVector(100, 1024);
      unit.total_count_delta = rng.UniformRange(1, 5);
      request.units.push_back(unit);
      ASSERT_TRUE(scheduler.ApplyRequest(request, &result).ok());
      demanded += unit.total_count_delta;
    } else {
      auto grants = scheduler.GrantsOf(AppId(1));
      if (!grants.empty()) {
        const auto& grant = grants[rng.Uniform(grants.size())];
        int64_t count = rng.UniformRange(1, grant.count);
        ASSERT_TRUE(scheduler
                        .Release(AppId(1), 0, grant.machine, count, &result)
                        .ok());
        demanded -= count;
      }
    }
    result.Clear();
    int64_t granted = 0;
    for (const auto& grant : scheduler.GrantsOf(AppId(1))) {
      granted += grant.count;
    }
    int64_t waiting = scheduler.locality_tree().TotalWaitingUnits();
    ASSERT_EQ(granted + waiting, demanded) << "step " << step;
  }
}

}  // namespace
}  // namespace fuxi::resource
