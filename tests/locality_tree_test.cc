#include "resource/locality_tree.h"

#include <gtest/gtest.h>

#include <ranges>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"

namespace fuxi::resource {
namespace {

using cluster::ClusterTopology;
using cluster::ResourceVector;

ClusterTopology MakeTopo(int racks = 2, int per_rack = 3) {
  ClusterTopology::Options options;
  options.racks = racks;
  options.machines_per_rack = per_rack;
  return ClusterTopology::Build(options);
}

/// A free pool that fits many units of every shape these tests use.
const ResourceVector kRoomy(100000, 1 << 20);

ScheduleUnitDef Unit(Priority priority) {
  ScheduleUnitDef def;
  def.priority = priority;
  def.resources = ResourceVector(100, 1024);
  return def;
}

TEST(LocalityTreeTest, DemandLifecycle) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  SlotKey key{AppId(1), 0};
  PendingDemand* d = tree.GetOrCreate(key, Unit(5));
  EXPECT_EQ(tree.Find(key), d);
  tree.AddTotal(d, 10);
  EXPECT_EQ(tree.TotalWaitingUnits(), 10);
  tree.Remove(key);
  EXPECT_EQ(tree.Find(key), nullptr);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(LocalityTreeTest, TotalClampsAtZero) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  PendingDemand* d = tree.GetOrCreate({AppId(1), 0}, Unit(5));
  tree.AddTotal(d, 5);
  tree.AddTotal(d, -100);
  EXPECT_EQ(d->total_remaining, 0);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(LocalityTreeTest, ConsumeGrantDecrementsAlongPath) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  PendingDemand* d = tree.GetOrCreate({AppId(1), 0}, Unit(5));
  MachineId m0(0);
  RackId rack = topo.machine(m0).rack;
  tree.AddTotal(d, 14);
  tree.AddMachine(d, m0, 4);
  tree.AddRack(d, rack, 9);

  tree.ConsumeGrant(d, m0, 3);
  EXPECT_EQ(d->total_remaining, 11);
  EXPECT_EQ(d->machine_remaining.at(m0), 1);
  EXPECT_EQ(d->rack_remaining.at(rack), 6);
  EXPECT_TRUE(tree.CheckInvariants());

  // Consuming from a machine without hints only reduces the total.
  MachineId other(5);  // different rack
  tree.ConsumeGrant(d, other, 2);
  EXPECT_EQ(d->total_remaining, 9);
  EXPECT_EQ(d->machine_remaining.at(m0), 1);
  EXPECT_EQ(d->rack_remaining.at(rack), 6);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(LocalityTreeTest, CandidateOrderPriorityFirst) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  PendingDemand* low = tree.GetOrCreate({AppId(1), 0}, Unit(1));
  PendingDemand* high = tree.GetOrCreate({AppId(2), 0}, Unit(9));
  tree.AddTotal(low, 1);
  tree.AddTotal(high, 1);

  std::vector<AppId> order;
  tree.ForEachCandidate(MachineId(0), kRoomy,
                        [&](PendingDemand* d, LocalityLevel) {
                          order.push_back(d->key.app);
                          return 0;  // skip: collect full order
                        });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], AppId(2));
  EXPECT_EQ(order[1], AppId(1));
}

TEST(LocalityTreeTest, MachineWaiterPrecedesSamePriorityClusterWaiter) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  // Cluster-level waiter enqueued FIRST (earlier seq).
  PendingDemand* cluster_waiter = tree.GetOrCreate({AppId(1), 0}, Unit(5));
  tree.AddTotal(cluster_waiter, 1);
  PendingDemand* machine_waiter = tree.GetOrCreate({AppId(2), 0}, Unit(5));
  tree.AddTotal(machine_waiter, 1);
  tree.AddMachine(machine_waiter, MachineId(0), 1);

  std::vector<AppId> order;
  tree.ForEachCandidate(MachineId(0), kRoomy,
                        [&](PendingDemand* d, LocalityLevel) {
                          order.push_back(d->key.app);
                          return 0;
                        });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], AppId(2)) << "machine-level waiter must come first";
}

TEST(LocalityTreeTest, FifoWithinSamePriorityAndLevel) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  PendingDemand* first = tree.GetOrCreate({AppId(1), 0}, Unit(5));
  PendingDemand* second = tree.GetOrCreate({AppId(2), 0}, Unit(5));
  tree.AddTotal(first, 1);
  tree.AddTotal(second, 1);
  std::vector<AppId> order;
  tree.ForEachCandidate(MachineId(0), kRoomy,
                        [&](PendingDemand* d, LocalityLevel) {
                          order.push_back(d->key.app);
                          return 0;
                        });
  EXPECT_EQ(order[0], AppId(1));
  EXPECT_EQ(order[1], AppId(2));
}

TEST(LocalityTreeTest, GrantingRemovesSatisfiedDemandFromIteration) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  PendingDemand* d = tree.GetOrCreate({AppId(1), 0}, Unit(5));
  tree.AddTotal(d, 3);
  int64_t granted_total = 0;
  tree.ForEachCandidate(MachineId(0), kRoomy,
                        [&](PendingDemand* demand, LocalityLevel) -> int64_t {
                          int64_t grant =
                              std::min<int64_t>(2, demand->total_remaining);
                          granted_total += grant;
                          return grant;
                        });
  EXPECT_EQ(granted_total, 3);  // 2 then 1
  EXPECT_EQ(d->total_remaining, 0);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(LocalityTreeTest, AvoidedMachineSkipsDemand) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  PendingDemand* d = tree.GetOrCreate({AppId(1), 0}, Unit(5));
  tree.AddTotal(d, 1);
  d->avoid.insert(MachineId(0));
  int candidates = 0;
  tree.ForEachCandidate(MachineId(0), kRoomy,
                        [&](PendingDemand*, LocalityLevel) {
                          ++candidates;
                          return 0;
                        });
  EXPECT_EQ(candidates, 0);
  // Other machines still see it.
  tree.ForEachCandidate(MachineId(1), kRoomy,
                        [&](PendingDemand*, LocalityLevel) {
                          ++candidates;
                          return 0;
                        });
  EXPECT_EQ(candidates, 1);
}

TEST(LocalityTreeTest, RackWaiterVisibleFromRackMachinesOnly) {
  ClusterTopology topo = MakeTopo(2, 3);
  LocalityTree tree(&topo);
  PendingDemand* d = tree.GetOrCreate({AppId(1), 0}, Unit(5));
  tree.AddTotal(d, 2);
  tree.AddRack(d, RackId(0), 2);

  LocalityLevel seen_level = LocalityLevel::kCluster;
  tree.ForEachCandidate(MachineId(0), kRoomy,
                        [&](PendingDemand*, LocalityLevel level) {
                          seen_level = level;
                          return 0;
                        });
  EXPECT_EQ(seen_level, LocalityLevel::kRack);

  // From the other rack it is only a cluster-level candidate.
  tree.ForEachCandidate(MachineId(3), kRoomy,
                        [&](PendingDemand*, LocalityLevel level) {
                          seen_level = level;
                          return 0;
                        });
  EXPECT_EQ(seen_level, LocalityLevel::kCluster);
}

ScheduleUnitDef Shaped(Priority priority, int64_t cpu, int64_t memory_mb) {
  ScheduleUnitDef def = Unit(priority);
  def.resources = ResourceVector(cpu, memory_mb);
  return def;
}

/// Visitor standing in for a scheduling pass: grants as many units as
/// `free` holds (capped by the demand) and takes them out of `free`.
auto GrantFrom(ResourceVector* free, std::vector<AppId>* visited) {
  return [free, visited](PendingDemand* d, LocalityLevel) -> int64_t {
    visited->push_back(d->key.app);
    int64_t count =
        std::min(free->DivideBy(d->def.resources), d->total_remaining);
    *free -= d->def.resources * count;
    return count;
  };
}

TEST(LocalityTreeTest, FreeThatFitsNoShapeVisitsNoCandidate) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  for (int64_t app = 1; app <= 3; ++app) {
    tree.AddTotal(tree.GetOrCreate({AppId(app), 0}, Unit(5)), 2);
  }
  tree.AddMachine(tree.Find({AppId(2), 0}), MachineId(0), 1);
  const ResourceVector free(50, 4096);  // half the CPU one unit needs
  EXPECT_FALSE(tree.FitsAnyLiveShape(free));
  int visits = 0;
  EXPECT_TRUE(tree.ForEachCandidate(MachineId(0), free,
                                    [&](PendingDemand*, LocalityLevel) {
                                      ++visits;
                                      return 0;
                                    }));
  EXPECT_EQ(visits, 0);
}

TEST(LocalityTreeTest, OnlySmallerShapeFitsKeepsOrderAndGrantsIt) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  PendingDemand* big = tree.GetOrCreate({AppId(1), 0}, Shaped(9, 400, 4096));
  PendingDemand* small_cluster =
      tree.GetOrCreate({AppId(2), 0}, Shaped(5, 100, 1024));
  PendingDemand* small_machine =
      tree.GetOrCreate({AppId(3), 0}, Shaped(5, 100, 1024));
  PendingDemand* big_low =
      tree.GetOrCreate({AppId(4), 0}, Shaped(1, 400, 4096));
  tree.AddTotal(big, 1);
  tree.AddTotal(small_cluster, 3);
  tree.AddTotal(small_machine, 1);
  tree.AddMachine(small_machine, MachineId(0), 1);
  tree.AddTotal(big_low, 1);

  ResourceVector free(250, 8192);
  std::vector<AppId> visited;
  // Priority first (the big demand is visited and rejected), then the
  // machine-level waiter before the earlier cluster-level one; the walk
  // ends once 50 CPU is left, before the low-priority big demand.
  EXPECT_TRUE(
      tree.ForEachCandidate(MachineId(0), free, GrantFrom(&free, &visited)));
  EXPECT_EQ(visited, (std::vector<AppId>{AppId(1), AppId(3), AppId(2)}));
  EXPECT_EQ(free, ResourceVector(50, 6144));
  EXPECT_EQ(big->total_remaining, 1);
  EXPECT_EQ(small_machine->total_remaining, 0);
  EXPECT_EQ(small_cluster->total_remaining, 2);
  EXPECT_EQ(big_low->total_remaining, 1);
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(LocalityTreeTest, WalkEndsOnQueuesWhileAShapeStillFits) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  tree.AddTotal(tree.GetOrCreate({AppId(1), 0}, Shaped(5, 400, 1024)), 1);
  tree.AddTotal(tree.GetOrCreate({AppId(2), 0}, Shaped(5, 100, 1024)), 1);
  ResourceVector free(1000, 8192);
  std::vector<AppId> visited;
  auto grant = GrantFrom(&free, &visited);
  // App 1 fits but is held back (as a planner hold would): the walk
  // runs out of candidates, not out of free, and says so.
  EXPECT_FALSE(tree.ForEachCandidate(
      MachineId(0), free,
      [&](PendingDemand* d, LocalityLevel level) -> int64_t {
        if (d->key.app == AppId(1)) {
          visited.push_back(d->key.app);
          return 0;
        }
        return grant(d, level);
      }));
  EXPECT_EQ(visited, (std::vector<AppId>{AppId(1), AppId(2)}));
  EXPECT_EQ(free, ResourceVector(900, 7168));
}

TEST(LocalityTreeTest, ShapeLeavesWhenItsLastDemandDrainsOrIsRemoved) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  PendingDemand* a = tree.GetOrCreate({AppId(1), 0}, Shaped(5, 100, 1024));
  PendingDemand* b = tree.GetOrCreate({AppId(2), 0}, Shaped(5, 100, 1024));
  PendingDemand* c = tree.GetOrCreate({AppId(3), 0}, Shaped(5, 100, 1024));
  PendingDemand* wide = tree.GetOrCreate({AppId(4), 0}, Shaped(5, 300, 1024));
  const ResourceVector free(150, 2048);  // fits the narrow shape only
  EXPECT_FALSE(tree.FitsAnyLiveShape(free)) << "no demand is live yet";
  tree.AddTotal(a, 2);
  tree.AddTotal(b, 1);
  tree.AddTotal(c, 1);
  tree.AddTotal(wide, 1);
  EXPECT_TRUE(tree.FitsAnyLiveShape(free));
  tree.AddTotal(a, -2);  // drained by a negative delta
  EXPECT_TRUE(tree.FitsAnyLiveShape(free));
  tree.ConsumeGrant(b, MachineId(0), 1);  // drained by a grant
  EXPECT_TRUE(tree.FitsAnyLiveShape(free));
  EXPECT_TRUE(tree.CheckInvariants());
  tree.Remove({AppId(3), 0});  // the narrow shape's last live demand
  EXPECT_FALSE(tree.FitsAnyLiveShape(free));
  EXPECT_TRUE(tree.FitsAnyLiveShape(ResourceVector(300, 1024)));
  EXPECT_TRUE(tree.CheckInvariants());
  tree.AddTotal(a, 1);  // live again
  EXPECT_TRUE(tree.FitsAnyLiveShape(free));
  tree.RemoveApp(AppId(4));
  EXPECT_FALSE(tree.FitsAnyLiveShape(ResourceVector(300, 512)));
  EXPECT_TRUE(tree.CheckInvariants());
}

TEST(LocalityTreeTest, UnitWithZeroDimensionFitsFreeNegativeThere) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  PendingDemand* cpu_only = tree.GetOrCreate({AppId(1), 0}, Shaped(5, 100, 0));
  tree.AddTotal(cpu_only, 3);
  // Memory overcommitted (negative) but the unit asks for none: a fit
  // count (DivideBy) says 2, while FitsIn would reject the unit.
  ResourceVector free(200, -10);
  ASSERT_FALSE(cpu_only->def.resources.FitsIn(free));
  EXPECT_TRUE(tree.FitsAnyLiveShape(free));
  std::vector<AppId> visited;
  EXPECT_TRUE(
      tree.ForEachCandidate(MachineId(0), free, GrantFrom(&free, &visited)));
  EXPECT_EQ(visited, std::vector<AppId>{AppId(1)});
  EXPECT_EQ(cpu_only->total_remaining, 1);
}

TEST(LocalityTreeTest, RemoveAppDropsAllItsDemands) {
  ClusterTopology topo = MakeTopo();
  LocalityTree tree(&topo);
  for (uint32_t slot = 0; slot < 3; ++slot) {
    PendingDemand* d = tree.GetOrCreate({AppId(1), slot}, Unit(5));
    tree.AddTotal(d, 2);
  }
  PendingDemand* other = tree.GetOrCreate({AppId(2), 0}, Unit(5));
  tree.AddTotal(other, 2);
  EXPECT_EQ(tree.RemoveApp(AppId(1)), 3u);
  EXPECT_EQ(tree.demand_count(), 1u);
  EXPECT_TRUE(tree.DemandsOf(AppId(1)).empty());
  EXPECT_EQ(std::ranges::distance(tree.DemandsOf(AppId(2))), 1);
  EXPECT_EQ(tree.TotalWaitingUnits(), 2);
  EXPECT_TRUE(tree.CheckInvariants());
}

/// Property sweep: random operations preserve tree invariants.
class LocalityTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LocalityTreeFuzzTest, RandomOperationsKeepInvariants) {
  Rng rng(GetParam());
  ClusterTopology topo = MakeTopo(3, 4);
  LocalityTree tree(&topo);
  std::vector<SlotKey> keys;
  for (int64_t app = 1; app <= 4; ++app) {
    for (uint32_t slot = 0; slot < 2; ++slot) {
      keys.push_back({AppId(app), slot});
    }
  }
  for (int step = 0; step < 500; ++step) {
    const SlotKey& key = keys[rng.Uniform(keys.size())];
    // Slot 1 demands carry a second unit shape, so the live-shape table
    // holds two entries that come and go independently.
    ScheduleUnitDef def = Unit(static_cast<Priority>(rng.Uniform(4)));
    if (key.slot_id == 1) def.resources = ResourceVector(300, 512);
    PendingDemand* d = tree.GetOrCreate(key, def);
    switch (rng.Uniform(6)) {
      case 0:
        tree.AddTotal(d, rng.UniformRange(-5, 10));
        break;
      case 1:
        tree.AddMachine(d, MachineId(static_cast<int64_t>(rng.Uniform(12))),
                        rng.UniformRange(-3, 5));
        break;
      case 2:
        tree.AddRack(d, RackId(static_cast<int64_t>(rng.Uniform(3))),
                     rng.UniformRange(-3, 5));
        break;
      case 3: {
        if (d->total_remaining > 0) {
          MachineId m(static_cast<int64_t>(rng.Uniform(12)));
          int64_t count = rng.UniformRange(1, d->total_remaining);
          tree.ConsumeGrant(d, m, count);
        }
        break;
      }
      case 4:
        if (rng.Bernoulli(0.05)) tree.Remove(key);
        break;
      case 5:
        if (rng.Bernoulli(0.02)) tree.RemoveApp(key.app);
        break;
    }
    ASSERT_TRUE(tree.CheckInvariants()) << "step " << step;
    // The per-app range is exactly AllDemands() filtered by app, in key
    // order.
    auto demands = tree.AllDemands();
    std::vector<const PendingDemand*> all(demands.begin(), demands.end());
    for (int64_t app = 1; app <= 4; ++app) {
      std::vector<const PendingDemand*> want;
      for (const PendingDemand* demand : all) {
        if (demand->key.app == AppId(app)) want.push_back(demand);
      }
      std::vector<const PendingDemand*> got;
      for (const auto& [slot_key, demand] : tree.DemandsOf(AppId(app))) {
        ASSERT_EQ(slot_key, demand->key);
        got.push_back(demand);
      }
      ASSERT_EQ(got, want) << "step " << step << " app " << app;
    }
    for (size_t i = 1; i < all.size(); ++i) {
      ASSERT_TRUE(all[i - 1]->key < all[i]->key) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalityTreeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

}  // namespace
}  // namespace fuxi::resource
