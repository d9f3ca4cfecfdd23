#ifndef FUXI_RUNTIME_SIM_CLUSTER_H_
#define FUXI_RUNTIME_SIM_CLUSTER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "agent/fuxi_agent.h"
#include "agent/process_host.h"
#include "cluster/topology.h"
#include "coord/checkpoint_store.h"
#include "coord/lock_service.h"
#include "dfs/file_system.h"
#include "master/fuxi_master.h"
#include "net/network.h"
#include "obs/observability.h"
#include "shard/router.h"
#include "shard/shard_directory.h"
#include "sim/simulator.h"

namespace fuxi::runtime {

struct SimClusterOptions {
  cluster::ClusterTopology::Options topology;
  net::Network::Config network;
  master::FuxiMasterOptions master;
  agent::FuxiAgentOptions agent;
  obs::ObsOptions obs;
  int master_replicas = 2;  ///< hot-standby pair by default
  uint64_t seed = 42;

  // --- federation (fuxi::shard) -----------------------------------------

  /// Number of FuxiMaster fault domains. 1 = the legacy single-master
  /// cluster: no shard directory, no router — construction and event
  /// order are byte-identical to the pre-federation cluster. With
  /// shards > 1 each shard gets `master_replicas` masters electing on
  /// their own lease, machines join shard `machine.id % shards`, and a
  /// replicated directory plus submission router come up.
  int shards = 1;
  /// Shard-directory replica count (only used when shards > 1).
  int directory_replicas = 2;
  /// Router tunables. `shards`, `directory` and `seed` are filled in by
  /// SimCluster; set the rest (backoff, spill thresholds) here.
  shard::RouterOptions router;
};

/// Assembles a complete simulated Fuxi cluster: the shared simulator,
/// network, lock service and checkpoint store; a hot-standby FuxiMaster
/// pair; one ProcessHost + FuxiAgent per machine; and a simulated DFS.
/// Fault-injection entry points mirror the paper's §5.4 scenarios
/// (NodeDown, PartialWorkerFailure via agents, SlowMachine via health
/// scores, FuxiMasterFailure).
class SimCluster {
 public:
  explicit SimCluster(SimClusterOptions options = SimClusterOptions());
  ~SimCluster();

  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// Starts masters and agents. Run the simulator a little afterwards
  /// to let the election and first heartbeats settle.
  void Start();

  // --- component access -------------------------------------------------

  sim::Simulator& sim() { return sim_; }
  const SimClusterOptions& options() const { return options_; }
  net::Network& network() { return *network_; }
  coord::LockService& locks() { return *locks_; }
  coord::CheckpointStore& checkpoint() { return checkpoint_; }
  cluster::ClusterTopology& topology() { return topology_; }
  dfs::FileSystem& dfs() { return *dfs_; }

  /// The cluster-wide trace recorder + metrics registry. Every
  /// component is wired to it at construction.
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }

  master::FuxiMaster* master(int index) { return masters_[index].get(); }
  int master_count() const { return static_cast<int>(masters_.size()); }
  /// The currently elected primary, or nullptr mid-election. In a
  /// sharded cluster this is shard 0's primary (legacy call sites).
  master::FuxiMaster* primary();

  // --- federation access (shards > 1; safe defaults otherwise) ----------

  int shard_count() const { return options_.shards; }
  int shard_of_machine(MachineId machine) const {
    return static_cast<int>(machine.value() % options_.shards);
  }
  /// The election lease shard `shard` contends on (kMasterLock when the
  /// cluster is unsharded). The names are built once at construction.
  const std::string& shard_lock(int shard) const {
    return shard_locks_[static_cast<size_t>(options_.shards == 1 ? 0 : shard)];
  }
  /// Shard `shard`'s elected primary, or nullptr mid-election.
  master::FuxiMaster* shard_primary(int shard);
  /// Crashes shard `shard`'s current primary (no-op mid-election).
  void KillShardPrimary(int shard);

  shard::SubmissionRouter* router() { return router_.get(); }
  shard::ShardDirectory* directory(int index) {
    return directories_[static_cast<size_t>(index)].get();
  }
  int directory_count() const { return static_cast<int>(directories_.size()); }

  agent::FuxiAgent* agent(MachineId machine) {
    return agents_[static_cast<size_t>(machine.value())].get();
  }
  agent::ProcessHost* host(MachineId machine) {
    return hosts_[static_cast<size_t>(machine.value())].get();
  }

  /// Fresh NodeId for dynamically created actors (application masters,
  /// workers, clients).
  NodeId AllocateNodeId() { return NodeId(next_node_id_++); }

  /// Installs the application-master launcher on every agent.
  void SetAppMasterLauncher(agent::FuxiAgent::AppMasterLauncher launcher);

  // --- convenience ------------------------------------------------------

  void RunFor(double seconds) { sim_.RunUntil(sim_.Now() + seconds); }
  void RunUntil(double when) { sim_.RunUntil(when); }

  // --- fault injection (§5.4 scenarios) ----------------------------------

  /// FuxiMasterFailure: crashes the current primary. The standby takes
  /// over after the lock lease lapses.
  void KillPrimaryMaster();

  /// NodeDown: machine halts — agent and all its processes die.
  void HaltMachine(MachineId machine);

  /// Brings a halted machine back (fresh agent, empty process host).
  void ReviveMachine(MachineId machine);

  /// Machines currently halted via HaltMachine (not mere agent
  /// crashes). The chaos InvariantMonitor uses this to assert a dead
  /// machine cannot host live processes.
  bool machine_halted(MachineId machine) const {
    return halted_.count(machine) > 0;
  }
  const std::set<MachineId>& halted_machines() const { return halted_; }

  /// Restarts every crashed FuxiMaster replica (chaos recovery step
  /// after crash-loop campaigns). Returns how many were restarted.
  int RestartDeadMasters();

  /// SlowMachine: lowers the health score the agent reports, eventually
  /// tripping the master's plugin-based disabling.
  void SetMachineHealth(MachineId machine, double score);

  /// SlowMachine (silent variant): multiplies the runtime of every
  /// instance executed on the machine (the paper injects sleeps into
  /// worker programs). Detected only by job-level long-tail handling.
  void SetMachineSlowdown(MachineId machine, double factor);
  double machine_slowdown(MachineId machine) const {
    return slowdown_[static_cast<size_t>(machine.value())];
  }

 private:
  SimClusterOptions options_;
  sim::Simulator sim_;
  /// Declared before the components that register instruments with it,
  /// after the simulator the recorder stamps time from.
  obs::Observability obs_;
  cluster::ClusterTopology topology_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<coord::LockService> locks_;
  coord::CheckpointStore checkpoint_;
  std::unique_ptr<dfs::FileSystem> dfs_;
  /// shard_lock(k) for every shard (one kMasterLock entry unsharded).
  std::vector<std::string> shard_locks_;
  std::vector<std::unique_ptr<master::FuxiMaster>> masters_;
  std::vector<std::unique_ptr<shard::ShardDirectory>> directories_;
  std::unique_ptr<shard::SubmissionRouter> router_;
  std::vector<std::unique_ptr<agent::ProcessHost>> hosts_;
  std::vector<std::unique_ptr<agent::FuxiAgent>> agents_;
  std::vector<double> slowdown_;
  std::set<MachineId> halted_;
  int64_t next_node_id_ = 10000;
  /// Post-event observer token driving the telemetry sampler (0 when
  /// telemetry is disabled).
  uint64_t telemetry_observer_ = 0;
};

}  // namespace fuxi::runtime

#endif  // FUXI_RUNTIME_SIM_CLUSTER_H_
