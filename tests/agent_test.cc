// Agent-side bookkeeping: the capacity-channel replay guard, the
// process table's (app, slot) index and running totals, and the agent's
// incrementally kept granted-capacity total — each checked against a
// brute-force recount — plus worker starts: the (app, slot) table, the
// shared worker description and the restart budget.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "agent/capacity_seq_guard.h"
#include "agent/fuxi_agent.h"
#include "agent/process_host.h"
#include "cluster/topology.h"
#include "common/rng.h"
#include "coord/lock_service.h"
#include "master/messages.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace fuxi::agent {
namespace {

using cluster::ResourceVector;

/// The guard as it was first written: every applied seq is kept until a
/// full snapshot or a new generation clears the set. CapacitySeqGuard
/// must accept and reject exactly the same messages.
class SetSeqGuard {
 public:
  bool Accept(uint64_t generation, uint64_t seq, bool full) {
    if (generation != generation_) {
      generation_ = generation;
      last_full_ = 0;
      applied_.clear();
    }
    if (seq <= last_full_) return false;
    if (!applied_.insert(seq).second) return false;
    if (full) {
      last_full_ = seq;
      applied_.clear();
    }
    return true;
  }

 private:
  uint64_t generation_ = 0;
  uint64_t last_full_ = 0;
  std::set<uint64_t> applied_;
};

TEST(CapacitySeqGuardTest, DuplicatesAfterLongInOrderRunAreRejected) {
  CapacitySeqGuard guard;
  for (uint64_t seq = 1; seq <= 10000; ++seq) {
    ASSERT_TRUE(guard.Accept(1, seq, false)) << seq;
  }
  // In-order delivery folds everything into the watermark.
  EXPECT_EQ(guard.watermark(), 10000u);
  EXPECT_EQ(guard.held(), 0u);
  for (uint64_t seq : {1u, 2u, 5000u, 9999u, 10000u}) {
    EXPECT_FALSE(guard.Accept(1, seq, false)) << seq;
  }
  EXPECT_TRUE(guard.Accept(1, 10001, false));
  EXPECT_EQ(guard.held(), 0u);
}

TEST(CapacitySeqGuardTest, OutOfOrderDeliveryAppliesEachSeqOnce) {
  CapacitySeqGuard guard;
  EXPECT_TRUE(guard.Accept(1, 3, false));
  EXPECT_EQ(guard.watermark(), 0u);
  EXPECT_EQ(guard.held(), 1u);
  EXPECT_FALSE(guard.Accept(1, 3, false));
  EXPECT_TRUE(guard.Accept(1, 1, false));
  EXPECT_EQ(guard.watermark(), 1u);
  EXPECT_EQ(guard.held(), 1u);
  EXPECT_TRUE(guard.Accept(1, 2, false));
  // The gap filled: 1..3 fold into the watermark.
  EXPECT_EQ(guard.watermark(), 3u);
  EXPECT_EQ(guard.held(), 0u);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    EXPECT_FALSE(guard.Accept(1, seq, false)) << seq;
  }
}

TEST(CapacitySeqGuardTest, GapLeftByDroppedDeltaHoldsLaterSeqs) {
  CapacitySeqGuard guard;
  for (uint64_t seq = 1; seq <= 100; ++seq) {
    if (seq == 3) continue;  // lost on the wire
    ASSERT_TRUE(guard.Accept(1, seq, false)) << seq;
  }
  EXPECT_EQ(guard.watermark(), 2u);
  EXPECT_EQ(guard.held(), 97u);
  for (uint64_t seq : {1u, 2u, 4u, 50u, 100u}) {
    EXPECT_FALSE(guard.Accept(1, seq, false)) << seq;
  }
  // The lost delta can still arrive late (a retransmit or a long
  // reorder) and applies once.
  EXPECT_TRUE(guard.Accept(1, 3, false));
  EXPECT_EQ(guard.watermark(), 100u);
  EXPECT_EQ(guard.held(), 0u);
  EXPECT_FALSE(guard.Accept(1, 3, false));
}

TEST(CapacitySeqGuardTest, FullSnapshotCoversEverythingBeforeIt) {
  CapacitySeqGuard guard;
  EXPECT_TRUE(guard.Accept(1, 1, false));
  EXPECT_TRUE(guard.Accept(1, 4, false));  // 2 and 3 still in flight
  EXPECT_TRUE(guard.Accept(1, 7, false));
  EXPECT_TRUE(guard.Accept(1, 5, true));
  EXPECT_EQ(guard.watermark(), 5u);
  EXPECT_EQ(guard.held(), 0u);
  // Deltas older than the snapshot are already reflected in it.
  EXPECT_FALSE(guard.Accept(1, 2, false));
  EXPECT_FALSE(guard.Accept(1, 3, false));
  EXPECT_FALSE(guard.Accept(1, 5, true));
  // A delta applied before the snapshot but newer than it is forgotten
  // with the table the snapshot replaced, so its duplicate applies.
  EXPECT_TRUE(guard.Accept(1, 7, false));
  EXPECT_FALSE(guard.Accept(1, 7, false));
  EXPECT_TRUE(guard.Accept(1, 6, false));
  EXPECT_EQ(guard.watermark(), 7u);
}

TEST(CapacitySeqGuardTest, NewGenerationStartsAFreshCounterSpace) {
  CapacitySeqGuard guard;
  for (uint64_t seq = 1; seq <= 10; ++seq) guard.Accept(1, seq, false);
  EXPECT_TRUE(guard.Accept(1, 12, false));
  EXPECT_FALSE(guard.Accept(1, 5, false));
  // A failed-over master restarts its seqs at 1.
  EXPECT_TRUE(guard.Accept(2, 1, false));
  EXPECT_EQ(guard.watermark(), 1u);
  EXPECT_EQ(guard.held(), 0u);
  EXPECT_FALSE(guard.Accept(2, 1, false));
  // Even a stale message of the old generation resets the space again.
  EXPECT_TRUE(guard.Accept(1, 5, false));
  EXPECT_EQ(guard.held(), 1u);
}

TEST(CapacitySeqGuardTest, MatchesTheKeepEverySeqGuardOnRandomTraffic) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    CapacitySeqGuard guard;
    SetSeqGuard reference;
    uint64_t generation = 1;
    uint64_t next_seq = 1;
    struct Sent {
      uint64_t generation;
      uint64_t seq;
      bool full;
    };
    std::vector<Sent> in_flight;
    size_t max_held = 0;
    for (int step = 0; step < 3000; ++step) {
      uint64_t roll = rng.Uniform(100);
      if (roll < 2) {
        ++generation;  // failover: the new master counts from 1
        next_seq = 1;
      } else if (roll < 60 || in_flight.empty()) {
        in_flight.push_back(
            {generation, next_seq++, rng.Bernoulli(0.03)});
      }
      if (in_flight.empty()) continue;
      // Deliver a random in-flight message (reordering); sometimes keep
      // it in flight for a duplicate, sometimes lose it.
      size_t pick = rng.Uniform(in_flight.size());
      Sent msg = in_flight[pick];
      if (rng.Bernoulli(0.05)) {
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
        continue;
      }
      if (!rng.Bernoulli(0.1)) {
        in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      bool want = reference.Accept(msg.generation, msg.seq, msg.full);
      ASSERT_EQ(guard.Accept(msg.generation, msg.seq, msg.full), want)
          << "seed " << seed << " step " << step << " gen "
          << msg.generation << " seq " << msg.seq << " full " << msg.full;
      max_held = std::max(max_held, guard.held());
    }
    // Lost deltas leave gaps, but the held set stays far below the
    // thousands of seqs the old guard would have kept.
    EXPECT_LT(max_held, 300u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// ProcessHost: the (app, slot) index and the running totals.

/// Brute-force recount of everything ProcessHost now keeps incrementally.
void ExpectHostMatchesRecount(const ProcessHost& host) {
  std::vector<const Process*> alive = host.Alive();
  ResourceVector limits;
  ResourceVector usage;
  std::map<std::pair<AppId, uint32_t>, std::vector<const Process*>> by_slot;
  for (const Process* process : alive) {
    limits += process->limit;
    usage += process->usage;
    by_slot[{process->app, process->slot_id}].push_back(process);
  }
  EXPECT_EQ(host.TotalUsage(), limits);
  EXPECT_EQ(host.TotalActualUsage(), usage);
  EXPECT_EQ(host.alive_count(), alive.size());
  std::vector<std::pair<AppId, uint32_t>> slots;
  for (const auto& [key, processes] : by_slot) slots.push_back(key);
  EXPECT_EQ(host.AliveSlots(), slots);
  for (int64_t app = 1; app <= 4; ++app) {
    for (uint32_t slot = 0; slot < 3; ++slot) {
      std::vector<const Process*> want = by_slot[{AppId(app), slot}];
      EXPECT_EQ(host.AliveOf(AppId(app), slot), want)
          << "app " << app << " slot " << slot;
      EXPECT_EQ(host.AliveCountOf(AppId(app), slot), want.size());
    }
  }
}

TEST(ProcessHostTest, IndexAndTotalsMatchRecountUnderRandomChurn) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    ProcessHost host(MachineId(3));
    std::vector<WorkerId> launched;
    int kill_hook_calls = 0;
    host.set_kill_hook([&](const Process& process) {
      // The dying process is already out of every view.
      ++kill_hook_calls;
      EXPECT_FALSE(process.alive);
      for (const Process* p : host.AliveOf(process.app, process.slot_id)) {
        EXPECT_NE(p->id, process.id);
      }
    });
    for (int step = 0; step < 400; ++step) {
      switch (rng.Uniform(3)) {
        case 0: {
          ResourceVector limit(rng.UniformRange(10, 200),
                               rng.UniformRange(100, 4000));
          launched.push_back(host.Launch(
              AppId(rng.UniformRange(1, 4)),
              static_cast<uint32_t>(rng.Uniform(3)), NodeId(7), limit,
              nullptr, step));
          break;
        }
        case 1:
          // Unknown and already-dead ids are part of the mix.
          if (!launched.empty()) {
            host.Kill(launched[rng.Uniform(launched.size())]);
          }
          break;
        case 2:
          if (!launched.empty()) {
            host.SetProcessUsage(
                launched[rng.Uniform(launched.size())],
                ResourceVector(rng.UniformRange(0, 400),
                               rng.UniformRange(0, 8000)));
          }
          break;
      }
      ExpectHostMatchesRecount(host);
      if (HasFailure()) FAIL() << "seed " << seed << " step " << step;
    }
    EXPECT_GT(kill_hook_calls, 0);
  }
}

// ---------------------------------------------------------------------
// FuxiAgent: TotalGrantedCapacity kept in step with the capacity table.

class AgentCapacityTest : public ::testing::Test {
 protected:
  const NodeId kMaster = NodeId(1);
  const NodeId kAgent = NodeId(100);

  AgentCapacityTest()
      : network_(&sim_, net::Network::Config{}),
        locks_(&sim_),
        topology_(cluster::ClusterTopology::Build({1, 1})),
        host_(MachineId(0)),
        agent_(&sim_, &network_, &locks_, &host_, &topology_, kAgent) {
    agent_.Start();  // no master holds the lease: heartbeats are skipped
  }

  void Deliver(const master::AgentCapacityRpc& rpc) {
    network_.Send(kMaster, kAgent, rpc);
    sim_.RunUntil(sim_.Now() + 0.01);
  }

  sim::Simulator sim_;
  net::Network network_;
  coord::LockService locks_;
  cluster::ClusterTopology topology_;
  ProcessHost host_;
  FuxiAgent agent_;
};

TEST_F(AgentCapacityTest, GrantedTotalMatchesRecountOverRandomCapacityRpcs) {
  Rng rng(7);
  // The unit size each (app, slot) entry last carried: the agent
  // adopts the def of every entry it applies.
  std::map<std::pair<AppId, uint32_t>, ResourceVector> unit;
  uint64_t generation = 1;
  uint64_t seq = 0;
  master::AgentCapacityRpc last;
  for (int step = 0; step < 600; ++step) {
    master::AgentCapacityRpc rpc;
    if (step > 0 && rng.Bernoulli(0.1)) {
      rpc = last;  // network duplicate: must not apply twice
    } else {
      if (rng.Bernoulli(0.02)) {
        ++generation;
        seq = 0;
      }
      rpc.master_generation = generation;
      rpc.seq = ++seq;
      rpc.full = rng.Bernoulli(0.05);
      if (rpc.full) unit.clear();
      size_t entries = rng.Uniform(4);
      for (size_t i = 0; i < entries; ++i) {
        master::AgentCapacityRpc::Entry entry;
        entry.app = AppId(rng.UniformRange(1, 3));
        entry.slot_id = static_cast<uint32_t>(rng.Uniform(2));
        entry.def.slot_id = entry.slot_id;
        entry.def.resources =
            ResourceVector(rng.UniformRange(1, 3) * 50,
                           rng.UniformRange(1, 3) * 512);
        entry.delta = rpc.full ? rng.UniformRange(0, 4)
                               : rng.UniformRange(-3, 4);
        unit[{entry.app, entry.slot_id}] = entry.def.resources;
        rpc.entries.push_back(entry);
      }
      last = rpc;
    }
    if (rng.Bernoulli(0.2)) {
      // Running processes exercise capacity enforcement and keep
      // zero-count entries alive in the table.
      AppId app(rng.UniformRange(1, 3));
      uint32_t slot = static_cast<uint32_t>(rng.Uniform(2));
      host_.Launch(app, slot, NodeId(9), ResourceVector(10, 10), nullptr,
                   sim_.Now());
    }
    Deliver(rpc);

    ResourceVector recount;
    for (const auto& [key, resources] : unit) {
      recount += resources * agent_.CapacityOf(key.first, key.second);
    }
    ASSERT_EQ(agent_.TotalGrantedCapacity(), recount) << "step " << step;
  }
  agent_.Crash();
  EXPECT_TRUE(agent_.TotalGrantedCapacity().IsZero());
}

// ---------------------------------------------------------------------
// FuxiAgent worker starts: the flat (app, slot) table, the shared worker
// description and the restart budget.

/// One agent on a one-machine cluster, driven by hand: capacity comes
/// from a "master" node, start requests from an application master whose
/// endpoint records every reply and crash report.
class AgentRig {
 public:
  const NodeId kMaster = NodeId(1);
  const NodeId kAm = NodeId(50);
  const NodeId kAgent = NodeId(100);

  explicit AgentRig(bool serialize_on_send)
      : network_(&sim_, NetConfig(serialize_on_send)),
        locks_(&sim_),
        topology_(cluster::ClusterTopology::Build({1, 1})),
        host_(MachineId(0)),
        agent_(&sim_, &network_, &locks_, &host_, &topology_, kAgent) {
    am_.Handle<master::WorkerStartedRpc>(
        [this](const net::Envelope&, const master::WorkerStartedRpc& rpc) {
          started_.push_back(rpc);
        });
    am_.Handle<master::WorkerCrashedRpc>(
        [this](const net::Envelope&, const master::WorkerCrashedRpc& rpc) {
          crashed_.push_back(rpc);
        });
    network_.Register(kAm, &am_);
    agent_.Start();  // no master holds the lease: heartbeats are skipped
  }

  void Grant(AppId app, uint32_t slot, int64_t delta) {
    master::AgentCapacityRpc rpc;
    rpc.master_generation = 1;
    rpc.seq = ++seq_;
    master::AgentCapacityRpc::Entry entry;
    entry.app = app;
    entry.slot_id = slot;
    entry.def.slot_id = slot;
    entry.def.resources = ResourceVector(50, 512);
    entry.delta = delta;
    rpc.entries.push_back(entry);
    network_.Send(kMaster, kAgent, rpc);
    RunFor(0.01);
  }

  /// Asks for one worker of (app, slot); the reply lands in started().
  void StartWorker(AppId app, uint32_t slot, SharedJson plan) {
    master::StartWorkerRpc rpc{app, slot, kAm, ++plan_id_, std::move(plan)};
    network_.Send(kAm, kAgent, rpc);
    RunFor(0.01);
  }

  void RunFor(double seconds) { sim_.RunUntil(sim_.Now() + seconds); }

  net::Network& network() { return network_; }
  ProcessHost& host() { return host_; }
  FuxiAgent& agent() { return agent_; }
  const std::vector<master::WorkerStartedRpc>& started() const {
    return started_;
  }
  const std::vector<master::WorkerCrashedRpc>& crashed() const {
    return crashed_;
  }

 private:
  static net::Network::Config NetConfig(bool serialize_on_send) {
    net::Network::Config config;
    config.serialize_on_send = serialize_on_send;
    return config;
  }

  sim::Simulator sim_;
  net::Network network_;
  coord::LockService locks_;
  cluster::ClusterTopology topology_;
  ProcessHost host_;
  FuxiAgent agent_;
  net::Endpoint am_;
  uint64_t seq_ = 0;
  uint64_t plan_id_ = 0;
  std::vector<master::WorkerStartedRpc> started_;
  std::vector<master::WorkerCrashedRpc> crashed_;
};

SharedJson WorkerPlan(const char* package) {
  Json plan = Json::MakeObject();
  plan["package"] = Json(package);
  return std::make_shared<const Json>(std::move(plan));
}

TEST(AgentWorkerStartTest, RefusedStartsLeaveTheTableAsItWas) {
  AgentRig rig(/*serialize_on_send=*/false);
  rig.Grant(AppId(1), 0, 1);
  ASSERT_EQ(rig.agent().slot_rows(), 1u);

  // No grant at all for these slots: refused, and no row appears.
  for (uint32_t slot = 0; slot < 5; ++slot) {
    rig.StartWorker(AppId(2), slot, WorkerPlan("p"));
    ASSERT_FALSE(rig.started().back().ok);
    EXPECT_EQ(rig.agent().slot_rows(), 1u) << "slot " << slot;
  }
  // The one unit is taken by a start in progress: a second is refused.
  rig.StartWorker(AppId(1), 0, WorkerPlan("p"));
  rig.StartWorker(AppId(1), 0, WorkerPlan("p"));
  ASSERT_EQ(rig.started().size(), 6u);
  EXPECT_FALSE(rig.started().back().ok);
  EXPECT_EQ(rig.agent().slot_rows(), 1u);

  rig.RunFor(5.0);
  ASSERT_TRUE(rig.started().back().ok);
  EXPECT_EQ(rig.host().AliveCountOf(AppId(1), 0), 1u);
  EXPECT_EQ(rig.agent().slot_rows(), 1u);

  // Revoking the grant kills the worker and empties the table.
  rig.Grant(AppId(1), 0, -1);
  EXPECT_EQ(rig.host().alive_count(), 0u);
  EXPECT_EQ(rig.agent().slot_rows(), 0u);
}

TEST(AgentWorkerStartTest, RevokedDuringDownloadLeavesNoRow) {
  AgentRig rig(/*serialize_on_send=*/false);
  rig.Grant(AppId(1), 0, 1);
  rig.StartWorker(AppId(1), 0, WorkerPlan("p"));
  // The revocation lands while the package downloads: the row stays
  // for the start, which then fails its re-check and leaves nothing.
  rig.Grant(AppId(1), 0, -1);
  EXPECT_EQ(rig.agent().CapacityOf(AppId(1), 0), 0);
  EXPECT_EQ(rig.agent().slot_rows(), 1u);
  rig.RunFor(5.0);
  ASSERT_EQ(rig.started().size(), 1u);
  EXPECT_FALSE(rig.started().back().ok);
  EXPECT_EQ(rig.host().alive_count(), 0u);
  EXPECT_EQ(rig.agent().slot_rows(), 0u);
}

TEST(AgentWorkerStartTest, LaunchedProcessesShareTheSentDescription) {
  uint64_t bytes_sent[2] = {0, 0};
  for (bool serialize_on_send : {false, true}) {
    AgentRig rig(serialize_on_send);
    SharedJson plan = WorkerPlan("pangu://packages/w.tar.gz");
    rig.Grant(AppId(1), 0, 2);
    rig.StartWorker(AppId(1), 0, plan);
    rig.StartWorker(AppId(1), 0, plan);
    rig.StartWorker(AppId(1), 0, plan);     // refused: both units taken
    rig.StartWorker(AppId(1), 1, nullptr);  // refused, no description
    rig.RunFor(5.0);
    std::vector<const Process*> running = rig.host().AliveOf(AppId(1), 0);
    ASSERT_EQ(running.size(), 2u);
    for (const Process* process : running) {
      ASSERT_NE(process->plan, nullptr);
      EXPECT_EQ(*process->plan, *plan);
      if (serialize_on_send) {
        // Every message decodes into a description of its own.
        EXPECT_NE(process->plan, plan);
      } else {
        EXPECT_EQ(process->plan, plan) << "the description was copied";
      }
    }
    if (serialize_on_send) {
      EXPECT_NE(running[0]->plan, running[1]->plan);
    }
    bytes_sent[serialize_on_send] = rig.network().stats().bytes_sent;
  }
  // Sharing changes what is held, never what is sent.
  EXPECT_GT(bytes_sent[0], 0u);
  EXPECT_EQ(bytes_sent[0], bytes_sent[1]);
}

TEST(AgentWorkerStartTest, RestartBudgetFollowsTheWorkerLineage) {
  AgentRig rig(/*serialize_on_send=*/false);
  const int limit = FuxiAgentOptions{}.worker_restart_limit;
  SharedJson plan = WorkerPlan("p");
  WorkerId worker = rig.host().Launch(AppId(1), 0, rig.kAm,
                                      ResourceVector(50, 512), plan, 0);
  for (int crash = 0; crash <= limit; ++crash) {
    rig.agent().InjectWorkerCrash(worker);
    rig.RunFor(0.01);
    ASSERT_EQ(rig.crashed().size(), static_cast<size_t>(crash + 1));
    const master::WorkerCrashedRpc& note = rig.crashed().back();
    EXPECT_EQ(note.worker, worker);
    if (crash < limit) {
      ASSERT_TRUE(note.restarted) << "crash " << crash;
      worker = note.replacement;
      // The replacement runs from the same shared description.
      ASSERT_NE(rig.host().Find(worker), nullptr);
      EXPECT_EQ(rig.host().Find(worker)->plan, plan);
    } else {
      EXPECT_FALSE(note.restarted) << "budget not enforced across ids";
    }
  }
  EXPECT_EQ(rig.host().alive_count(), 0u);
}

}  // namespace
}  // namespace fuxi::agent
