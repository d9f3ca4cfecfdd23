// Differential oracle suite: every operation is applied to the
// incremental Scheduler and to the naive ReferenceScheduler (an
// O(machines x demands) recompute-everything oracle with the same
// tie-breaking spec), and the two must produce *identical*
// SchedulingResults — same assignments, same revocations, in the same
// order — at every single step, plus identical grant tables and
// waiting totals. 56 seeds x 4 option mixes of randomized
// request/release/failover streams guard the fast path's persistent
// indexes, dirty-set and fit caches against any semantic drift.
//
// A third Scheduler with a decision-audit log attached runs the same
// stream and must match the bare fast path byte-for-byte — the audit
// layer's decision-neutrality contract (attaching provenance recording
// can never change a scheduling outcome). At the end of every seed,
// each demand still waiting must have a non-empty rejection chain in
// the audit dump (the `fuxi explain` "why is this unplaced" contract).
//
// Every randomized ResourceRequest is additionally round-tripped
// through its fuxi::wire codec before being applied (the
// serialize-on-send contract): re-encode must be byte-identical and the
// decoded request must drive both schedulers to the same results the
// in-memory request would have.
//
// Also holds the comparator-invocation regression test: placement over
// unchanged locality hints must not re-sort them (the hint indexes are
// persistent sorted maps; the old code rebuilt and std::sort'ed a
// vector on every PlaceDemand call).

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/rng.h"
#include "obs/audit.h"
#include "resource/reference_scheduler.h"
#include "resource/scheduler.h"
#include "sweep/sweep_runner.h"
#include "wire/wire.h"

namespace fuxi::resource {
namespace {

using cluster::ClusterTopology;
using cluster::ResourceVector;

std::string FormatResult(const SchedulingResult& result) {
  std::ostringstream os;
  os << "assignments:";
  for (const Assignment& a : result.assignments) {
    os << " (app=" << a.app.value() << " slot=" << a.slot_id
       << " m=" << a.machine.value() << " n=" << a.count << ")";
  }
  os << " revocations:";
  for (const Revocation& r : result.revocations) {
    os << " (app=" << r.app.value() << " slot=" << r.slot_id
       << " m=" << r.machine.value() << " n=" << r.count
       << " reason=" << static_cast<int>(r.reason) << ")";
  }
  return os.str();
}

bool SameResult(const SchedulingResult& a, const SchedulingResult& b) {
  if (a.assignments.size() != b.assignments.size()) return false;
  for (size_t i = 0; i < a.assignments.size(); ++i) {
    const Assignment& x = a.assignments[i];
    const Assignment& y = b.assignments[i];
    if (x.app != y.app || x.slot_id != y.slot_id ||
        x.machine != y.machine || x.count != y.count) {
      return false;
    }
  }
  if (a.revocations.size() != b.revocations.size()) return false;
  for (size_t i = 0; i < a.revocations.size(); ++i) {
    const Revocation& x = a.revocations[i];
    const Revocation& y = b.revocations[i];
    if (x.app != y.app || x.slot_id != y.slot_id ||
        x.machine != y.machine || x.count != y.count ||
        x.reason != y.reason) {
      return false;
    }
  }
  return true;
}

/// Drives both schedulers through one randomized operation stream,
/// failing on the first step where their outputs or state diverge.
class DifferentialDriver {
 public:
  DifferentialDriver(const ClusterTopology* topo,
                     const SchedulerOptions& options, uint64_t seed)
      : topo_(topo),
        fast_(topo, options),
        oracle_(topo, options),
        audited_(topo, options),
        // Over-provisioned ring (350 ops cannot fill it) so the final
        // rejection-chain check never races eviction.
        audit_log_(nullptr, nullptr, 1 << 16),
        rng_(seed) {
    audited_.set_audit(&audit_log_);
  }

  Scheduler& fast() { return fast_; }
  ReferenceScheduler& oracle() { return oracle_; }
  Scheduler& audited() { return audited_; }
  obs::AuditLog& audit_log() { return audit_log_; }
  Rng& rng() { return rng_; }

  void CreateQuotaGroup(const std::string& name,
                        const ResourceVector& quota) {
    Status a = fast_.CreateQuotaGroup(name, quota);
    Status b = oracle_.CreateQuotaGroup(name, quota);
    Status c = audited_.CreateQuotaGroup(name, quota);
    ASSERT_EQ(a.ok(), b.ok()) << Context("CreateQuotaGroup");
    ASSERT_EQ(a.ok(), c.ok()) << Context("CreateQuotaGroup audited");
  }

  void RegisterApp(AppId app, const std::string& group) {
    Status a = fast_.RegisterApp(app, group);
    Status b = oracle_.RegisterApp(app, group);
    Status c = audited_.RegisterApp(app, group);
    ASSERT_EQ(a.ok(), b.ok()) << Context("RegisterApp");
    ASSERT_EQ(a.ok(), c.ok()) << Context("RegisterApp audited");
  }

  void Step(const std::function<Status(Scheduler&, SchedulingResult*)>& f,
            const std::function<Status(ReferenceScheduler&,
                                       SchedulingResult*)>& g,
            const char* what) {
    SchedulingResult fast_result;
    SchedulingResult oracle_result;
    SchedulingResult audited_result;
    Status a = f(fast_, &fast_result);
    Status b = g(oracle_, &oracle_result);
    Status c = f(audited_, &audited_result);
    ASSERT_EQ(a.ok(), b.ok())
        << Context(what) << "\nfast: " << a.ToString()
        << "\noracle: " << b.ToString();
    ASSERT_TRUE(SameResult(fast_result, oracle_result))
        << Context(what) << "\nfast:   " << FormatResult(fast_result)
        << "\noracle: " << FormatResult(oracle_result);
    // Decision neutrality: the audit-attached scheduler must produce a
    // byte-identical result sequence.
    ASSERT_EQ(c.ok(), a.ok())
        << Context(what) << " audited status diverged";
    ASSERT_EQ(FormatResult(audited_result), FormatResult(fast_result))
        << Context(what) << ": attaching the audit log changed a result";
    ++step_;
  }

  /// Deep state comparison: grant tables per app, cluster aggregates,
  /// waiting totals, and both sides' own invariants.
  void CheckStateConverged(const std::vector<AppId>& apps) {
    ASSERT_TRUE(fast_.CheckInvariants()) << Context("fast invariants");
    ASSERT_TRUE(oracle_.CheckInvariants()) << Context("oracle invariants");
    ASSERT_TRUE(audited_.CheckInvariants()) << Context("audited invariants");
    ASSERT_TRUE(audited_.TotalGranted() == fast_.TotalGranted())
        << Context("audited TotalGranted");
    ASSERT_EQ(audited_.locality_tree().TotalWaitingUnits(),
              fast_.locality_tree().TotalWaitingUnits())
        << Context("audited TotalWaitingUnits");
    ASSERT_TRUE(fast_.TotalGranted() == oracle_.TotalGranted())
        << Context("TotalGranted");
    ASSERT_TRUE(fast_.TotalCapacity() == oracle_.TotalCapacity())
        << Context("TotalCapacity");
    ASSERT_EQ(fast_.locality_tree().TotalWaitingUnits(),
              oracle_.TotalWaitingUnits())
        << Context("TotalWaitingUnits");
    for (AppId app : apps) {
      auto a = fast_.GrantsOf(app);
      auto b = oracle_.GrantsOf(app);
      ASSERT_EQ(a.size(), b.size()) << Context("GrantsOf size");
      for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_TRUE(a[i].slot_id == b[i].slot_id &&
                    a[i].machine == b[i].machine &&
                    a[i].count == b[i].count)
            << Context("GrantsOf entry") << " app=" << app.value()
            << " i=" << i;
      }
      ASSERT_TRUE(fast_.GrantedTo(app) == oracle_.GrantedTo(app))
          << Context("GrantedTo") << " app=" << app.value();
    }
  }

 private:
  std::string Context(const char* what) const {
    std::ostringstream os;
    os << "step " << step_ << " op " << what;
    return os.str();
  }

  const ClusterTopology* topo_;
  Scheduler fast_;
  ReferenceScheduler oracle_;
  Scheduler audited_;
  obs::AuditLog audit_log_;
  Rng rng_;
  int step_ = 0;
};

/// One full differential seed: the randomized stream, every step's
/// oracle and audit-neutrality comparison, and the final explainability
/// sweep. Runs on SweepRunner worker threads — everything it touches is
/// local to the call, so seeds proceed concurrently without cross-talk.
void RunDifferentialSeed(uint64_t seed) {
  SCOPED_TRACE("differential seed " + std::to_string(seed));
  Rng setup_rng(seed * 7919 + 1);

  ClusterTopology::Options topo_options;
  topo_options.racks = 2 + static_cast<int>(seed % 3);
  topo_options.machines_per_rack = 3 + static_cast<int>(seed % 4);
  topo_options.machine_capacity = ResourceVector(400, 8192);
  ClusterTopology topo = ClusterTopology::Build(topo_options);
  const int machine_count = static_cast<int>(topo.machine_count());

  SchedulerOptions options;
  options.enable_quota = seed % 2 == 0;
  options.enable_preemption = seed % 3 != 0;
  options.locality_tree = seed % 5 != 0;
  if (seed % 7 == 0) options.max_candidates_per_pass = 3;
  bool aging = seed % 4 == 0;
  if (aging) options.starvation_age_after = 5.0;

  DifferentialDriver driver(&topo, options, seed);
  if (options.enable_quota) {
    driver.CreateQuotaGroup("g1", ResourceVector(1200, 24576));
    driver.CreateQuotaGroup("g2", ResourceVector(1200, 24576));
  }
  constexpr int kApps = 5;
  std::vector<AppId> apps;
  for (int64_t a = 1; a <= kApps; ++a) {
    apps.push_back(AppId(a));
    std::string group =
        options.enable_quota ? (a % 2 == 0 ? "g1" : "g2") : "";
    driver.RegisterApp(AppId(a), group);
  }

  Rng& rng = driver.rng();
  // A slot's unit definition is immutable for the app's lifetime
  // (redefinitions are ignored, and failover restores must report the
  // original def — conflicting defs would corrupt free-pool accounting
  // in any implementation). The registry pins the def first used for
  // each (app, slot).
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
  double now = 0;
  for (int step = 0; step < 350; ++step) {
    now += 1.0;
    AppId app(static_cast<int64_t>(1 + rng.Uniform(kApps)));
    switch (rng.Uniform(8)) {
      case 0:
      case 1:
      case 2: {  // incremental request with hints and avoids
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
        // Serialize-on-send differential: the request the schedulers see
        // is the one that came back through the wire codec. Re-encode
        // byte-identity proves the encoding is canonical; the oracle
        // comparisons below prove the decoded request is semantically
        // the original.
        std::string bytes = wire::EncodeBody(request);
        ResourceRequest decoded;
        Status wire_status = wire::DecodeBody(bytes, &decoded);
        ASSERT_TRUE(wire_status.ok()) << wire_status.message();
        ASSERT_EQ(wire::EncodeBody(decoded), bytes)
            << "ResourceRequest wire encoding is not canonical";
        request = std::move(decoded);
        driver.Step(
            [&](Scheduler& s, SchedulingResult* r) {
              return s.ApplyRequest(request, r);
            },
            [&](ReferenceScheduler& s, SchedulingResult* r) {
              return s.ApplyRequest(request, r);
            },
            "ApplyRequest");
        break;
      }
      case 3: {  // release part of a grant we hold
        auto grants = driver.fast().GrantsOf(app);
        if (grants.empty()) break;
        const auto& grant = grants[rng.Uniform(grants.size())];
        int64_t count = rng.UniformRange(1, grant.count);
        driver.Step(
            [&](Scheduler& s, SchedulingResult* r) {
              return s.Release(app, grant.slot_id, grant.machine, count, r);
            },
            [&](ReferenceScheduler& s, SchedulingResult* r) {
              return s.Release(app, grant.slot_id, grant.machine, count, r);
            },
            "Release");
        break;
      }
      case 4: {  // machine failure / recovery
        MachineId m(static_cast<int64_t>(rng.Uniform(machine_count)));
        bool online = driver.fast().machine_state(m).online;
        driver.Step(
            [&](Scheduler& s, SchedulingResult* r) {
              if (online) {
                s.SetMachineOffline(m, r);
              } else {
                s.SetMachineOnline(m, r);
              }
              return Status::Ok();
            },
            [&](ReferenceScheduler& s, SchedulingResult* r) {
              if (online) {
                s.SetMachineOffline(m, r);
              } else {
                s.SetMachineOnline(m, r);
              }
              return Status::Ok();
            },
            "MachineFlip");
        break;
      }
      case 5: {  // capacity reconfiguration
        if (!rng.Bernoulli(0.3)) break;
        MachineId m(static_cast<int64_t>(rng.Uniform(machine_count)));
        ResourceVector capacity(
            200 + 100 * static_cast<int64_t>(rng.Uniform(4)),
            4096 + 2048 * static_cast<int64_t>(rng.Uniform(4)));
        driver.Step(
            [&](Scheduler& s, SchedulingResult* r) {
              s.SetMachineCapacity(m, capacity, r);
              return Status::Ok();
            },
            [&](ReferenceScheduler& s, SchedulingResult* r) {
              s.SetMachineCapacity(m, capacity, r);
              return Status::Ok();
            },
            "SetMachineCapacity");
        break;
      }
      case 6: {  // failover-style restore: install a grant out of band,
                 // then the deferred pass (the RestoreGrant+
                 // RunSchedulePass sequence the master uses after
                 // collecting agent soft state)
        ScheduleUnitDef def =
            def_for(app, static_cast<uint32_t>(rng.Uniform(3)));
        MachineId m(static_cast<int64_t>(rng.Uniform(machine_count)));
        int64_t count = rng.UniformRange(1, 3);
        Status a = driver.fast().RestoreGrant(app, def, m, count);
        Status b = driver.oracle().RestoreGrant(app, def, m, count);
        Status c = driver.audited().RestoreGrant(app, def, m, count);
        ASSERT_EQ(a.ok(), b.ok())
            << "RestoreGrant status diverged at step " << step << ": fast="
            << a.ToString() << " oracle=" << b.ToString();
        ASSERT_EQ(a.ok(), c.ok())
            << "audited RestoreGrant status diverged at step " << step;
        driver.Step(
            [&](Scheduler& s, SchedulingResult* r) {
              s.RunSchedulePass(m, r);
              return Status::Ok();
            },
            [&](ReferenceScheduler& s, SchedulingResult* r) {
              s.RunSchedulePass(m, r);
              return Status::Ok();
            },
            "RunSchedulePass");
        break;
      }
      case 7: {  // app teardown + re-register, or an aging sweep
        if (aging && rng.Bernoulli(0.5)) {
          size_t a = driver.fast().AgeWaitingDemands(now);
          size_t b = driver.oracle().AgeWaitingDemands(now);
          size_t c = driver.audited().AgeWaitingDemands(now);
          ASSERT_EQ(a, b) << "aging boost count diverged at step " << step;
          ASSERT_EQ(a, c)
              << "audited aging boost count diverged at step " << step;
          auto fast_aged = driver.fast().TakeAgedResults();
          auto oracle_aged = driver.oracle().TakeAgedResults();
          auto audited_aged = driver.audited().TakeAgedResults();
          ASSERT_EQ(fast_aged.size(), oracle_aged.size())
              << "aged result count diverged at step " << step;
          ASSERT_EQ(fast_aged.size(), audited_aged.size())
              << "audited aged result count diverged at step " << step;
          for (size_t i = 0; i < fast_aged.size(); ++i) {
            ASSERT_TRUE(SameResult(fast_aged[i], oracle_aged[i]))
                << "aged result " << i << " diverged at step " << step
                << "\nfast:   " << FormatResult(fast_aged[i])
                << "\noracle: " << FormatResult(oracle_aged[i]);
            ASSERT_EQ(FormatResult(audited_aged[i]),
                      FormatResult(fast_aged[i]))
                << "audited aged result " << i << " diverged at step "
                << step;
          }
          break;
        }
        if (!rng.Bernoulli(0.1)) break;
        driver.Step(
            [&](Scheduler& s, SchedulingResult* r) {
              return s.UnregisterApp(app, r);
            },
            [&](ReferenceScheduler& s, SchedulingResult* r) {
              return s.UnregisterApp(app, r);
            },
            "UnregisterApp");
        defs.erase(defs.lower_bound(SlotKey{app, 0}),
                   defs.lower_bound(SlotKey{AppId(app.value() + 1), 0}));
        std::string group = options.enable_quota
                                ? (app.value() % 2 == 0 ? "g1" : "g2")
                                : "";
        driver.RegisterApp(app, group);
        break;
      }
    }
    if (step % 10 == 0 || step == 349) {
      driver.CheckStateConverged(apps);
    }
  }
  driver.CheckStateConverged(apps);

  // The `fuxi explain` acceptance contract: every demand still waiting at
  // the end of the stream must be explainable — its rejection chain in
  // the audit dump is non-empty.
  EXPECT_EQ(driver.audit_log().overwritten(), 0u)
      << "ring sized too small for this stream";
  const std::vector<obs::DecisionRecord> dump =
      driver.audit_log().Snapshot();
  EXPECT_GT(dump.size(), 0u);
  for (const PendingDemand* demand :
       driver.audited().locality_tree().AllDemands()) {
    if (demand->total_remaining <= 0) continue;
    std::vector<obs::CandidateOutcome> chain = obs::RejectionChain(
        dump, demand->key.app.value(), demand->key.slot_id);
    EXPECT_FALSE(chain.empty())
        << "unplaced demand app=" << demand->key.app.value()
        << " slot=" << demand->key.slot_id
        << " remaining=" << demand->total_remaining
        << " has no rejection chain in the audit dump";
  }
}

// 56 seeds; option mixes (quota/preemption/flat-queue/pass cap/aging)
// are derived from the seed so every ablation combination is covered.
// The seeds are independent by construction, so they fan out across the
// work-stealing pool; a fatal assertion inside a worker still fails the
// test (gtest is thread-safe on pthreads), and the step/seed context in
// each assertion message identifies the diverging stream.
TEST(SchedulerDifferentialSweepTest, FiftySixSeedsMatchOracleInParallel) {
  ::fuxi::sweep::SweepRunner runner({::fuxi::sweep::DefaultSweepJobs()});
  runner.Run(56, [](size_t i) {
    RunDifferentialSeed(static_cast<uint64_t>(i) + 1);
  });
}

/// The latent re-sort regression: PlaceDemand used to rebuild and
/// std::sort the hinted machine/rack id vectors on every call. The hint
/// indexes are now persistent sorted maps, so placement over unchanged
/// hints performs ZERO key comparisons — the instrumented comparator
/// proves it. (The old implementation paid O(k log k) comparisons per
/// placement; with 64 hints and 50 placements that is >15,000.)
TEST(SchedulerHintSortRegressionTest, PlacementDoesNotResortHints) {
  ClusterTopology::Options topo_options;
  topo_options.racks = 8;
  topo_options.machines_per_rack = 8;
  // Tiny machines: the demand unit below never fits, so every placement
  // walks the full hint list and the demand stays waiting.
  topo_options.machine_capacity = ResourceVector(10, 64);
  ClusterTopology topo = ClusterTopology::Build(topo_options);

  Scheduler scheduler(&topo);
  ASSERT_TRUE(scheduler.RegisterApp(AppId(1)).ok());

  SchedulingResult result;
  ResourceRequest request;
  request.app = AppId(1);
  UnitRequestDelta unit;
  unit.slot_id = 0;
  unit.has_def = true;
  unit.def.slot_id = 0;
  unit.def.resources = ResourceVector(100, 1024);  // fits nowhere
  unit.total_count_delta = 64;
  for (int64_t m = 0; m < 64; ++m) {
    unit.hints.push_back(
        {LocalityLevel::kMachine, topo.machine(MachineId(m)).hostname, 1});
  }
  request.units.push_back(unit);
  ASSERT_TRUE(scheduler.ApplyRequest(request, &result).ok());
  ASSERT_TRUE(result.assignments.empty());

  // Steady state: grow the demand 50 times; each ApplyRequest walks all
  // 64 machine hints in PlaceDemand. The persistent index means not a
  // single machine-id comparison is spent.
  InstrumentedIdLess<MachineId>::comparisons = 0;
  for (int i = 0; i < 50; ++i) {
    ResourceRequest grow;
    grow.app = AppId(1);
    UnitRequestDelta delta;
    delta.slot_id = 0;
    delta.total_count_delta = 1;
    grow.units.push_back(delta);
    ASSERT_TRUE(scheduler.ApplyRequest(grow, &result).ok());
  }
  EXPECT_EQ(InstrumentedIdLess<MachineId>::comparisons, 0u)
      << "placement over unchanged hints must not re-sort them";
  EXPECT_TRUE(result.assignments.empty());
  EXPECT_TRUE(scheduler.CheckInvariants());
}

}  // namespace
}  // namespace fuxi::resource
