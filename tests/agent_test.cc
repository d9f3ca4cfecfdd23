// Agent-side bookkeeping: the capacity-channel replay guard, the
// process table's (app, slot) index and running totals, and the agent's
// incrementally kept granted-capacity total — each checked against a
// brute-force recount.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
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
              Json(), step));
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
      host_.Launch(app, slot, NodeId(9), ResourceVector(10, 10), Json(),
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

}  // namespace
}  // namespace fuxi::agent
