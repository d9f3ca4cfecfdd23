// Tests for the application-side protocol client: desired-state
// semantics, incremental delta generation, hint/avoid bookkeeping, and
// the failover recovery handshake.

#include <gtest/gtest.h>

#include "master/resource_client.h"
#include "runtime/sim_cluster.h"

namespace fuxi::master {
namespace {

class ResourceClientTest : public ::testing::Test {
 protected:
  ResourceClientTest() {
    runtime::SimClusterOptions options;
    options.topology.racks = 2;
    options.topology.machines_per_rack = 3;
    options.topology.machine_capacity = cluster::ResourceVector(400, 8192);
    cluster_ = std::make_unique<runtime::SimCluster>(options);
    cluster_->Start();
    cluster_->RunFor(2.0);
    SubmitAppRpc submit;
    submit.app = AppId(1);
    submit.client = cluster_->AllocateNodeId();
    cluster_->network().Send(submit.client, cluster_->primary()->node(),
                             submit);
    cluster_->RunFor(0.5);
  }

  std::unique_ptr<ResourceClient> MakeClient(uint64_t incarnation = 1) {
    node_ = cluster_->AllocateNodeId();
    cluster_->network().Register(node_, &endpoint_);
    return std::make_unique<ResourceClient>(
        &cluster_->sim(), &cluster_->network(), &cluster_->locks(), node_,
        AppId(1), ResourceClientOptions(), incarnation);
  }

  resource::ScheduleUnitDef Unit(uint32_t slot = 0) {
    resource::ScheduleUnitDef def;
    def.slot_id = slot;
    def.priority = 100;
    def.resources = cluster::ResourceVector(100, 2048);
    return def;
  }

  std::unique_ptr<runtime::SimCluster> cluster_;
  net::Endpoint endpoint_;
  NodeId node_;
};

TEST_F(ResourceClientTest, DesiredBecomesGrants) {
  auto client = MakeClient();
  client->Start(&endpoint_);
  client->DefineUnit(Unit());
  client->SetDesired(0, 5);
  cluster_->RunFor(2.0);
  EXPECT_EQ(client->granted_total(0), 5);
  EXPECT_EQ(client->desired(0), 5);
  // The master agrees.
  EXPECT_EQ(cluster_->primary()->scheduler()->GrantedTo(AppId(1)),
            cluster::ResourceVector(500, 5 * 2048));
}

TEST_F(ResourceClientTest, ShrinkingDesiredOnlyCancelsOutstanding) {
  auto client = MakeClient();
  client->Start(&endpoint_);
  client->DefineUnit(Unit());
  // Far more than the cluster holds: 6 machines x 4 = 24 fit.
  client->SetDesired(0, 100);
  cluster_->RunFor(2.0);
  EXPECT_EQ(client->granted_total(0), 24);
  // Shrink to 30: cancels waiting units; grants stay.
  client->SetDesired(0, 30);
  cluster_->RunFor(2.0);
  EXPECT_EQ(client->granted_total(0), 24);
  EXPECT_EQ(cluster_->primary()
                ->scheduler()
                ->locality_tree()
                .TotalWaitingUnits(),
            6);
  // Shrinking below granted clamps: grants must be Released, not
  // un-desired.
  client->SetDesired(0, 1);
  cluster_->RunFor(2.0);
  EXPECT_EQ(client->granted_total(0), 24);
  EXPECT_EQ(client->desired(0), 24);
}

TEST_F(ResourceClientTest, ReleaseReturnsUnitsToMaster) {
  auto client = MakeClient();
  client->Start(&endpoint_);
  client->DefineUnit(Unit());
  client->SetDesired(0, 4);
  cluster_->RunFor(2.0);
  ASSERT_EQ(client->granted_total(0), 4);
  MachineId machine = client->grants_by_machine(0).begin()->first;
  int64_t held = client->grants_by_machine(0).begin()->second;
  client->Release(0, machine, held);
  cluster_->RunFor(2.0);
  EXPECT_EQ(client->granted_total(0), 4 - held);
  EXPECT_EQ(client->desired(0), 4 - held);
  EXPECT_EQ(cluster_->primary()->scheduler()->GrantCount(AppId(1), 0,
                                                         machine),
            0);
}

TEST_F(ResourceClientTest, LocalityHintsReachTheScheduler) {
  auto client = MakeClient();
  client->Start(&endpoint_);
  client->DefineUnit(Unit());
  std::string host = cluster_->topology().machine(MachineId(4)).hostname;
  client->SetLocalityHint(0, resource::LocalityLevel::kMachine, host, 2);
  client->SetDesired(0, 2);
  cluster_->RunFor(2.0);
  EXPECT_EQ(client->granted(0, MachineId(4)), 2)
      << "both units should land on the hinted machine";
}

TEST_F(ResourceClientTest, AvoidKeepsMachineClean) {
  auto client = MakeClient();
  client->Start(&endpoint_);
  client->DefineUnit(Unit());
  for (int64_t m = 0; m < 5; ++m) {
    client->Avoid(0, cluster_->topology().machine(MachineId(m)).hostname);
  }
  client->SetDesired(0, 4);
  cluster_->RunFor(2.0);
  EXPECT_EQ(client->granted_total(0), 4);
  for (int64_t m = 0; m < 5; ++m) {
    EXPECT_EQ(client->granted(0, MachineId(m)), 0);
  }
  EXPECT_EQ(client->granted(0, MachineId(5)), 4);
}

TEST_F(ResourceClientTest, DeltasNotFullStatesCarryTheTraffic) {
  auto client = MakeClient();
  client->Start(&endpoint_);
  client->DefineUnit(Unit());
  for (int i = 1; i <= 10; ++i) {
    client->SetDesired(0, i);
    cluster_->RunFor(0.2);
  }
  EXPECT_GE(client->deltas_sent(), 9u);
  EXPECT_LE(client->full_syncs_sent(), 2u)
      << "only the initial sync (and at most one periodic) should be full";
}

TEST_F(ResourceClientTest, DestroyedClientLeavesNoTimerBehind) {
  // An application master crash frees its client while the simulator
  // runs on. The destructor alone (no Stop()) must cancel the periodic
  // sync and retry timers: one that fired would read the freed client,
  // which the ASan/UBSan build reports as a heap-use-after-free.
  auto client = MakeClient();
  client->Start(&endpoint_);
  client->DefineUnit(Unit());
  client->SetDesired(0, 2);
  cluster_->RunFor(0.5);
  client.reset();
  cluster_->network().Unregister(node_);
  cluster_->RunFor(3 * ResourceClientOptions().full_sync_interval);
}

TEST_F(ResourceClientTest, RecoveryRestoresGrantViewFromMaster) {
  auto client = MakeClient(1);
  client->Start(&endpoint_);
  client->DefineUnit(Unit());
  client->SetDesired(0, 6);
  cluster_->RunFor(2.0);
  ASSERT_EQ(client->granted_total(0), 6);
  auto held_before = client->grants_by_machine(0);

  // The AM process dies; a new incarnation recovers the grant view
  // from FuxiMaster before sending any demand.
  client->Stop();
  client.reset();
  cluster_->network().Unregister(node_);
  cluster_->RunFor(1.0);

  net::Endpoint fresh_endpoint;
  cluster_->network().Register(node_, &fresh_endpoint);
  ResourceClient recovered(&cluster_->sim(), &cluster_->network(),
                           &cluster_->locks(), node_, AppId(1),
                           ResourceClientOptions(), 2);
  bool snapshot_arrived = false;
  recovered.StartRecovering(&fresh_endpoint, [&] {
    snapshot_arrived = true;
  });
  cluster_->RunFor(3.0);
  ASSERT_TRUE(snapshot_arrived);
  EXPECT_EQ(recovered.granted_total(0), 6);
  EXPECT_EQ(recovered.grants_by_machine(0), held_before);
  // The master must not have released anything during the handshake.
  EXPECT_EQ(cluster_->primary()->scheduler()->GrantedTo(AppId(1)),
            cluster::ResourceVector(600, 6 * 2048));
}

TEST_F(ResourceClientTest, SurvivesMasterFailover) {
  auto client = MakeClient();
  client->Start(&endpoint_);
  client->DefineUnit(Unit());
  client->SetDesired(0, 4);
  cluster_->RunFor(2.0);
  ASSERT_EQ(client->granted_total(0), 4);

  cluster_->KillPrimaryMaster();
  cluster_->RunFor(20.0);
  ASSERT_NE(cluster_->primary(), nullptr);
  // Grants intact on both sides after the failover dance.
  EXPECT_EQ(client->granted_total(0), 4);
  EXPECT_EQ(cluster_->primary()->scheduler()->GrantedTo(AppId(1)),
            cluster::ResourceVector(400, 4 * 2048));
  // And new demand still works against the new primary.
  client->SetDesired(0, 6);
  cluster_->RunFor(3.0);
  EXPECT_EQ(client->granted_total(0), 6);
}

}  // namespace
}  // namespace fuxi::master
