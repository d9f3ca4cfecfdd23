// Audit-equivalence battery: the in-place audits must reach the same
// verdict as the from-scratch recomputes they replaced, which are kept
// here as references:
//   * Scheduler::CheckInvariants against a reference that rebuilds the
//     grant-site index and the per-app tallies into fresh maps and
//     probes the free indexes with one set lookup per machine;
//   * FairShareTree::CheckConservation (inside it) against a reference
//     that sums each node's books into a map keyed by node;
//   * Timeline::CheckNoOvercommit against a reference that collects its
//     evaluation points into a std::set<double> first;
//   * ClusterPlanner::CheckNoOvercommit against a machine-first
//     reference that recomputes every machine's budget for its rack.
// On random valid states (the differential suite's operation mix) both
// verdicts must be true; after each single corruption of an index or a
// tally both must be false.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"
#include "planner/planner.h"
#include "planner/timeline.h"
#include "resource/scheduler.h"

namespace fuxi::resource {

using cluster::ResourceVector;

/// Friend of Scheduler and FairShareTree: the reference audits, and the
/// corruptions, read and write their private books through it.
struct SchedulerAuditPeer {
  static bool ReferenceConservation(
      const FairShareTree& t,
      const std::map<AppId, ResourceVector>& app_usage,
      const std::map<AppId, ResourceVector>& app_waiting) {
    using Node = FairShareTree::Node;
    std::map<const Node*, std::pair<ResourceVector, ResourceVector>>
        expected;
    expected[&t.root_];  // the root aggregates everything
    for (const auto& [path, node] : t.nodes_) expected[node.get()];
    for (const auto& [app, node] : t.app_node_) {
      ResourceVector usage;
      ResourceVector waiting;
      if (auto it = app_usage.find(app); it != app_usage.end()) {
        usage = it->second;
      }
      if (auto it = app_waiting.find(app); it != app_waiting.end()) {
        waiting = it->second;
      }
      for (const Node* n = node; n != nullptr; n = n->parent) {
        expected[n].first += usage;
        expected[n].second += waiting;
      }
    }
    size_t deficits = 0;
    for (const auto& [node, books] : expected) {
      if (!(node->usage == books.first)) return false;
      if (!(node->waiting == books.second)) return false;
      if (node->in_deficit != t.HasDeficit(*node)) return false;
      if (node->in_deficit) ++deficits;
    }
    return deficits == t.deficit_count_;
  }

  static bool ReferenceCheckInvariants(const Scheduler& s) {
    if (!s.tree_.CheckInvariants()) return false;
    ResourceVector granted_total;
    std::map<SlotKey, std::set<MachineId>> sites;
    for (size_t m = 0; m < s.machines_.size(); ++m) {
      const MachineState& state = s.machines_[m];
      MachineId id(static_cast<int64_t>(m));
      ResourceVector granted;
      for (const auto& [key, count] : state.grants) {
        if (count <= 0) return false;
        const PendingDemand* demand = s.tree_.Find(key);
        if (demand == nullptr) return false;
        granted += demand->def.resources * count;
        sites[key].insert(id);
      }
      bool has_free = state.online && !state.free.IsZero();
      if ((s.free_machines_.count(id) > 0) != has_free) return false;
      size_t rack =
          static_cast<size_t>(s.topology_->machine(id).rack.value());
      if ((s.rack_free_[rack].count(id) > 0) != has_free) return false;
      if (state.online) {
        if (!(granted + state.free == state.capacity)) return false;
        if (state.free.AnyNegative()) return false;
      } else {
        if (!state.grants.empty()) return false;
      }
      granted_total += granted;
    }
    if (sites != s.grant_sites_) return false;
    if (!(granted_total == s.total_granted_)) return false;
    size_t rack_free_total = 0;
    for (const std::set<MachineId>& rack_set : s.rack_free_) {
      rack_free_total += rack_set.size();
    }
    if (rack_free_total != s.free_machines_.size()) return false;
    std::map<AppId, ResourceVector> app_usage;
    for (const auto& [key, machines] : s.grant_sites_) {
      const PendingDemand* demand = s.tree_.Find(key);
      if (demand == nullptr) return false;
      for (MachineId machine : machines) {
        const MachineState& state =
            s.machines_[static_cast<size_t>(machine.value())];
        auto grant = state.grants.find(key);
        if (grant == state.grants.end()) return false;
        app_usage[key.app] += demand->def.resources * grant->second;
      }
    }
    std::map<AppId, ResourceVector> app_waiting;
    for (const PendingDemand* demand : s.tree_.AllDemands()) {
      if (demand->total_remaining <= 0) continue;
      app_waiting[demand->key.app] +=
          demand->def.resources * demand->total_remaining;
    }
    return ReferenceConservation(s.fairshare_, app_usage, app_waiting);
  }

  static std::set<MachineId>& free_machines(Scheduler& s) {
    return s.free_machines_;
  }
  static std::vector<std::set<MachineId>>& rack_free(Scheduler& s) {
    return s.rack_free_;
  }
  static std::map<SlotKey, std::set<MachineId>>& grant_sites(Scheduler& s) {
    return s.grant_sites_;
  }
  static ResourceVector& total_granted(Scheduler& s) {
    return s.total_granted_;
  }
  static FairShareTree::Node& root(Scheduler& s) {
    return s.fairshare_.root_;
  }
  static FairShareTree::Node* node(Scheduler& s, const std::string& path) {
    auto it = s.fairshare_.nodes_.find(path);
    return it == s.fairshare_.nodes_.end() ? nullptr : it->second.get();
  }
};

namespace {

using cluster::ClusterTopology;

/// One single-index corruption: `apply` returns false when the state
/// offers nothing to corrupt; `revert` restores the exact prior state.
struct Corruption {
  const char* name;
  std::function<bool()> apply;
  std::function<void()> revert;
};

std::vector<Corruption> Corruptions(Scheduler& s,
                                    const ClusterTopology& topo,
                                    const std::vector<std::string>& paths,
                                    Rng& rng) {
  using Peer = SchedulerAuditPeer;
  std::vector<Corruption> out;
  const int64_t machines = static_cast<int64_t>(topo.machine_count());
  // Shared by apply/revert of one corruption.
  auto id = std::make_shared<MachineId>();
  auto key = std::make_shared<SlotKey>();
  auto index = std::make_shared<size_t>();

  out.push_back({"drop a machine from free_machines_",
                 [&s, id, &rng] {
                   auto& free = Peer::free_machines(s);
                   if (free.empty()) return false;
                   auto it = free.begin();
                   std::advance(it, rng.Uniform(free.size()));
                   *id = *it;
                   free.erase(it);
                   return true;
                 },
                 [&s, id] { Peer::free_machines(s).insert(*id); }});
  out.push_back({"list a machine that does not exist in free_machines_",
                 [&s, id, machines] {
                   *id = MachineId(machines + 3);
                   Peer::free_machines(s).insert(*id);
                   return true;
                 },
                 [&s, id] { Peer::free_machines(s).erase(*id); }});
  out.push_back(
      {"add a machine to the wrong rack set",
       [&s, &topo, id, index, &rng, machines] {
         if (topo.rack_count() < 2) return false;
         *id = MachineId(static_cast<int64_t>(rng.Uniform(machines)));
         size_t own = static_cast<size_t>(topo.machine(*id).rack.value());
         *index = (own + 1 + rng.Uniform(topo.rack_count() - 1)) %
                  topo.rack_count();
         return Peer::rack_free(s)[*index].insert(*id).second;
       },
       [&s, id, index] { Peer::rack_free(s)[*index].erase(*id); }});
  out.push_back(
      {"move a free machine to the wrong rack set",
       [&s, &topo, id, index, &rng] {
         auto& free = Peer::free_machines(s);
         if (topo.rack_count() < 2 || free.empty()) return false;
         auto it = free.begin();
         std::advance(it, rng.Uniform(free.size()));
         *id = *it;
         size_t own = static_cast<size_t>(topo.machine(*id).rack.value());
         *index = (own + 1 + rng.Uniform(topo.rack_count() - 1)) %
                  topo.rack_count();
         Peer::rack_free(s)[own].erase(*id);
         Peer::rack_free(s)[*index].insert(*id);
         return true;
       },
       [&s, &topo, id, index] {
         Peer::rack_free(s)[*index].erase(*id);
         Peer::rack_free(s)[static_cast<size_t>(
                                topo.machine(*id).rack.value())]
             .insert(*id);
       }});
  out.push_back(
      {"add a grant-site pair no machine grant backs",
       [&s, id, key, &rng, machines] {
         auto& sites = Peer::grant_sites(s);
         if (sites.empty()) return false;
         auto it = sites.begin();
         std::advance(it, rng.Uniform(sites.size()));
         if (static_cast<int64_t>(it->second.size()) == machines) {
           return false;
         }
         *key = it->first;
         do {
           *id = MachineId(static_cast<int64_t>(rng.Uniform(machines)));
         } while (it->second.count(*id) > 0);
         it->second.insert(*id);
         return true;
       },
       [&s, id, key] { Peer::grant_sites(s)[*key].erase(*id); }});
  out.push_back({"drop a grant-site pair",
                 [&s, id, key, &rng] {
                   auto& sites = Peer::grant_sites(s);
                   if (sites.empty()) return false;
                   auto it = sites.begin();
                   std::advance(it, rng.Uniform(sites.size()));
                   *key = it->first;
                   auto pos = it->second.begin();
                   std::advance(pos, rng.Uniform(it->second.size()));
                   *id = *pos;
                   it->second.erase(pos);
                   return true;
                 },
                 [&s, id, key] { Peer::grant_sites(s)[*key].insert(*id); }});
  out.push_back(
      {"leave an empty site set",
       [&s, key] {
         // A demand that holds no grant, when there is one: the key is
         // real, only its site set is empty.
         *key = SlotKey{AppId(999), 0};
         for (const PendingDemand* demand : s.locality_tree().AllDemands()) {
           if (Peer::grant_sites(s).count(demand->key) == 0) {
             *key = demand->key;
             break;
           }
         }
         return Peer::grant_sites(s).emplace(*key, std::set<MachineId>())
             .second;
       },
       [&s, key] { Peer::grant_sites(s).erase(*key); }});
  out.push_back({"skew total_granted_",
                 [&s] {
                   Peer::total_granted(s) += ResourceVector(1, 0);
                   return true;
                 },
                 [&s] { Peer::total_granted(s) -= ResourceVector(1, 0); }});
  auto node = std::make_shared<FairShareTree::Node*>();
  out.push_back(
      {"skew one tenant node's usage",
       [&s, node, &paths, &rng] {
         size_t pick = rng.Uniform(paths.size() + 1);
         *node = pick == paths.size() ? &Peer::root(s)
                                      : Peer::node(s, paths[pick]);
         if (*node == nullptr) return false;
         (*node)->usage += ResourceVector(0, 1);
         return true;
       },
       [node] { (*node)->usage -= ResourceVector(0, 1); }});
  return out;
}

/// Both verdicts on the current state, which must agree.
bool Verdict(const Scheduler& s, const std::string& context) {
  bool fast = s.CheckInvariants();
  bool reference = SchedulerAuditPeer::ReferenceCheckInvariants(s);
  EXPECT_EQ(fast, reference) << context;
  return fast && reference;
}

/// A random operation stream in the differential suite's mix (hinted
/// requests with avoid lists, releases, machine flips, capacity changes,
/// failover restores, app teardown, aging), with every corruption
/// applied and reverted at each checkpoint.
void RunAuditSeed(uint64_t seed) {
  SCOPED_TRACE("audit seed " + std::to_string(seed));
  ClusterTopology::Options topo_options;
  topo_options.racks = 1 + static_cast<int>(seed % 3);
  topo_options.machines_per_rack = 3 + static_cast<int>(seed % 4);
  topo_options.machine_capacity = ResourceVector(400, 8192);
  ClusterTopology topo = ClusterTopology::Build(topo_options);
  const int machine_count = static_cast<int>(topo.machine_count());

  SchedulerOptions options;
  options.enable_quota = seed % 2 == 0;
  options.enable_preemption = seed % 3 != 0;
  options.locality_tree = seed % 5 != 0;
  if (seed % 4 == 0) options.starvation_age_after = 5.0;
  Scheduler s(&topo, options);

  // Flat quota groups, or a two-level weighted tenant tree.
  constexpr int kApps = 5;
  std::vector<std::string> paths;
  std::vector<std::string> app_path(kApps + 1);
  if (seed % 3 == 1) {
    paths = {"org", "org/a", "org/b", "other"};
    ASSERT_TRUE(s.CreateTenantNode("org", ResourceVector(1200, 24576)).ok());
    ASSERT_TRUE(
        s.CreateTenantNode("org/a", ResourceVector(600, 12288), 2.0).ok());
    ASSERT_TRUE(
        s.CreateTenantNode("org/b", ResourceVector(300, 6144), 1.0, 4).ok());
    ASSERT_TRUE(s.CreateTenantNode("other", ResourceVector(600, 8192)).ok());
    for (int a = 1; a <= kApps; ++a) {
      app_path[a] = a % 3 == 0 ? "org/a" : (a % 3 == 1 ? "org/b" : "other");
    }
  } else {
    paths = {"g1", "g2"};
    ASSERT_TRUE(s.CreateQuotaGroup("g1", ResourceVector(1200, 24576)).ok());
    ASSERT_TRUE(s.CreateQuotaGroup("g2", ResourceVector(1200, 24576)).ok());
    for (int a = 1; a <= kApps; ++a) app_path[a] = a % 2 == 0 ? "g1" : "g2";
  }
  for (int a = 1; a <= kApps; ++a) {
    ASSERT_TRUE(s.RegisterApp(AppId(a), app_path[a]).ok());
  }

  Rng rng(seed * 7919 + 3);
  std::vector<Corruption> corruptions = Corruptions(s, topo, paths, rng);
  std::map<SlotKey, ScheduleUnitDef> defs;
  auto def_for = [&](AppId app, uint32_t slot_id) {
    SlotKey key{app, slot_id};
    auto it = defs.find(key);
    if (it == defs.end()) {
      ScheduleUnitDef def;
      def.slot_id = slot_id;
      def.priority = static_cast<Priority>(rng.Uniform(5));
      def.resources = ResourceVector(
          50 + 50 * static_cast<int64_t>(rng.Uniform(3)),
          1024 * (1 + static_cast<int64_t>(rng.Uniform(4))));
      it = defs.emplace(key, def).first;
    }
    return it->second;
  };

  size_t applied = 0;
  double now = 0;
  for (int step = 0; step < 240; ++step) {
    now += 1.0;
    AppId app(static_cast<int64_t>(1 + rng.Uniform(kApps)));
    SchedulingResult result;
    switch (rng.Uniform(8)) {
      case 0:
      case 1:
      case 2: {
        ResourceRequest request;
        request.app = app;
        UnitRequestDelta unit;
        unit.slot_id = static_cast<uint32_t>(rng.Uniform(3));
        unit.has_def = true;
        unit.def = def_for(app, unit.slot_id);
        unit.total_count_delta = rng.UniformRange(-4, 10);
        if (rng.Bernoulli(0.35)) {
          MachineId m(static_cast<int64_t>(rng.Uniform(machine_count)));
          unit.hints.push_back({LocalityLevel::kMachine,
                                topo.machine(m).hostname,
                                rng.UniformRange(1, 4)});
        }
        if (rng.Bernoulli(0.25)) {
          RackId r(static_cast<int64_t>(rng.Uniform(topo.rack_count())));
          unit.hints.push_back({LocalityLevel::kRack, topo.rack(r).name,
                                rng.UniformRange(1, 5)});
        }
        if (rng.Bernoulli(0.15)) {
          MachineId m(static_cast<int64_t>(rng.Uniform(machine_count)));
          unit.avoid_add.push_back(topo.machine(m).hostname);
        }
        request.units.push_back(unit);
        (void)s.ApplyRequest(request, &result);
        break;
      }
      case 3: {
        auto grants = s.GrantsOf(app);
        if (grants.empty()) break;
        const auto& grant = grants[rng.Uniform(grants.size())];
        (void)s.Release(app, grant.slot_id, grant.machine,
                        rng.UniformRange(1, grant.count), &result);
        break;
      }
      case 4: {
        MachineId m(static_cast<int64_t>(rng.Uniform(machine_count)));
        if (s.machine_state(m).online) {
          s.SetMachineOffline(m, &result);
        } else {
          s.SetMachineOnline(m, &result);
        }
        break;
      }
      case 5: {
        if (!rng.Bernoulli(0.3)) break;
        MachineId m(static_cast<int64_t>(rng.Uniform(machine_count)));
        s.SetMachineCapacity(
            m,
            ResourceVector(200 + 100 * static_cast<int64_t>(rng.Uniform(4)),
                           4096 + 2048 * static_cast<int64_t>(rng.Uniform(4))),
            &result);
        break;
      }
      case 6: {
        ScheduleUnitDef def =
            def_for(app, static_cast<uint32_t>(rng.Uniform(3)));
        MachineId m(static_cast<int64_t>(rng.Uniform(machine_count)));
        (void)s.RestoreGrant(app, def, m, rng.UniformRange(1, 3));
        s.RunSchedulePass(m, &result);
        break;
      }
      case 7: {
        if (options.starvation_age_after > 0 && rng.Bernoulli(0.5)) {
          s.AgeWaitingDemands(now);
          s.TakeAgedResults();
          break;
        }
        if (!rng.Bernoulli(0.1)) break;
        ASSERT_TRUE(s.UnregisterApp(app, &result).ok());
        defs.erase(defs.lower_bound(SlotKey{app, 0}),
                   defs.lower_bound(SlotKey{AppId(app.value() + 1), 0}));
        ASSERT_TRUE(s.RegisterApp(app, app_path[app.value()]).ok());
        break;
      }
    }
    if (step % 8 != 0) continue;
    std::string where = "step " + std::to_string(step);
    ASSERT_TRUE(Verdict(s, where + " (valid state)"));
    for (const Corruption& c : corruptions) {
      if (!c.apply()) continue;
      ++applied;
      bool fast = s.CheckInvariants();
      bool reference = SchedulerAuditPeer::ReferenceCheckInvariants(s);
      EXPECT_FALSE(fast) << where << ": in-place audit missed: " << c.name;
      EXPECT_FALSE(reference)
          << where << ": reference audit missed: " << c.name;
      c.revert();
      ASSERT_TRUE(Verdict(s, where + " after reverting: " + c.name));
    }
  }
  EXPECT_GT(applied, corruptions.size()) << "corruptions rarely applied";
}

TEST(AuditEquivalenceTest, SchedulerAuditMatchesFromScratchReference) {
  for (uint64_t seed = 1; seed <= 24; ++seed) RunAuditSeed(seed);
}

/// The point-set form of the no-overcommit check.
bool ReferenceNoOvercommit(const planner::Timeline& tl,
                           const ResourceVector& budget, double from) {
  std::set<double> points{from};
  for (const auto& [id, claim] : tl.claims()) {
    if (claim.start > from) points.insert(claim.start);
    if (claim.end != planner::kForever && claim.end > from) {
      points.insert(claim.end);
    }
  }
  for (double p : points) {
    if ((budget - tl.LoadAt(p)).AnyNegative()) return false;
  }
  return true;
}

TEST(AuditEquivalenceTest, TimelineOvercommitMatchesPointSetReference) {
  Rng rng(17);
  int verdicts[2] = {0, 0};
  for (int trial = 0; trial < 2000; ++trial) {
    planner::Timeline tl;
    int claims = static_cast<int>(rng.Uniform(7));
    for (int c = 0; c < claims; ++c) {
      // Whole-number times on a short horizon, so boundaries coincide.
      double start = static_cast<double>(rng.Uniform(10));
      double end = rng.Bernoulli(0.2)
                       ? planner::kForever
                       : start + 1 + static_cast<double>(rng.Uniform(6));
      tl.ReserveAt(static_cast<uint64_t>(c + 1), start, end,
                   ResourceVector(10 * static_cast<int64_t>(rng.Uniform(5)),
                                  100 * static_cast<int64_t>(rng.Uniform(5))),
                   rng.Bernoulli(0.5) ? 0 : 7);
    }
    ResourceVector budget(10 * static_cast<int64_t>(rng.Uniform(12)),
                          100 * static_cast<int64_t>(rng.Uniform(12)));
    double from = static_cast<double>(rng.Uniform(12)) - 0.5 * rng.Uniform(2);
    bool reference = ReferenceNoOvercommit(tl, budget, from);
    ASSERT_EQ(tl.CheckNoOvercommit(budget, from), reference)
        << "trial " << trial;
    ++verdicts[reference ? 1 : 0];
  }
  EXPECT_GT(verdicts[0], 100);
  EXPECT_GT(verdicts[1], 100);
}

TEST(AuditEquivalenceTest, PlannerOvercommitMatchesMachineFirstReference) {
  Rng rng(29);
  constexpr int64_t kRacks = 3;
  constexpr int64_t kMachines = 9;
  int verdicts[2] = {0, 0};
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<planner::MachineView> views(kMachines);
    for (planner::MachineView& view : views) {
      view.online = true;
      view.free = ResourceVector(100, 1000);
    }
    std::vector<ResourceVector> capacities(kMachines,
                                           ResourceVector(400, 4000));
    std::vector<int64_t> rack_of;
    for (int64_t m = 0; m < kMachines; ++m) rack_of.push_back(m % kRacks);
    planner::HostHooks hooks;
    hooks.machine = [&views](int64_t m) {
      return views[static_cast<size_t>(m)];
    };
    planner::ClusterPlanner planner(capacities, rack_of, kRacks, hooks);
    int grants = static_cast<int>(rng.Uniform(8));
    for (int g = 0; g < grants; ++g) {
      planner.OnGrantCommitted(
          planner::PlanKey{1, static_cast<uint32_t>(g)},
          static_cast<int64_t>(rng.Uniform(kMachines)),
          static_cast<int64_t>(1 + rng.Uniform(3)), ResourceVector(50, 500),
          1.0 + static_cast<double>(rng.Uniform(5)));
    }
    // A machine that went offline under its claims, or a free pool that
    // went negative, breaks the book.
    for (planner::MachineView& view : views) {
      if (rng.Bernoulli(0.05)) view.online = false;
      if (rng.Bernoulli(0.05)) view.free = ResourceVector(-10, 1000);
    }
    bool reference = true;
    for (int64_t m = 0; m < kMachines && reference; ++m) {
      const planner::Timeline& tl = planner.machine_timeline(m);
      const planner::MachineView& view = views[static_cast<size_t>(m)];
      if (!view.online) {
        reference = tl.claim_count() == 0;
        continue;
      }
      reference = tl.CheckNoOvercommit(
          view.free + tl.RunningLoadAt(planner.now()), planner.now());
    }
    for (int64_t r = 0; r < kRacks && reference; ++r) {
      ResourceVector budget;
      for (int64_t m = r; m < kMachines; m += kRacks) {
        const planner::MachineView& view = views[static_cast<size_t>(m)];
        if (!view.online) continue;
        budget += view.free +
                  planner.machine_timeline(m).RunningLoadAt(planner.now());
      }
      reference =
          planner.rack_timeline(r).CheckNoOvercommit(budget, planner.now());
    }
    ASSERT_EQ(planner.CheckNoOvercommit(), reference) << "trial " << trial;
    ++verdicts[reference ? 1 : 0];
  }
  EXPECT_GT(verdicts[0], 20);
  EXPECT_GT(verdicts[1], 20);
}

}  // namespace
}  // namespace fuxi::resource
