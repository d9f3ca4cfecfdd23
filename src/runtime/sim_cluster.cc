#include "runtime/sim_cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace fuxi::runtime {

namespace {

// Federation NodeId layout: masters live in [1, 80), directory replicas
// in [80, 95), the router at 95, agents at 100 + machine id, dynamic
// actors from next_node_id_.
constexpr int64_t kDirectoryNodeBase = 80;
constexpr int64_t kRouterNode = 95;

}  // namespace

SimCluster::SimCluster(SimClusterOptions options)
    : options_(options),
      obs_(&sim_, options.obs),
      topology_(cluster::ClusterTopology::Build(options.topology)) {
  FUXI_CHECK(options_.shards >= 1);
  if (options_.shards == 1) {
    shard_locks_.push_back(master::FuxiMaster::kMasterLock);
  } else {
    for (int k = 0; k < options_.shards; ++k) {
      shard_locks_.push_back(StrFormat("fuxi_master/shard%d", k));
    }
  }
  network_ = std::make_unique<net::Network>(&sim_, options_.network,
                                            options_.seed);
  network_->SetObservability(&obs_.trace, &obs_.metrics);
  locks_ = std::make_unique<coord::LockService>(&sim_);
  dfs_ = std::make_unique<dfs::FileSystem>(&topology_, options_.seed + 1);
  dfs_->set_metrics(&obs_.metrics);

  // Keep the dynamic-id pool clear of the agent range on huge
  // topologies (100 + machine id would collide past ~9900 machines).
  next_node_id_ = std::max<int64_t>(
      next_node_id_,
      100 + static_cast<int64_t>(topology_.machine_count()) + 100);

  if (options_.shards == 1) {
    // Legacy single-master cluster, byte-identical to pre-federation
    // construction: default master options, no directory, no router.
    for (int i = 0; i < options_.master_replicas; ++i) {
      masters_.push_back(std::make_unique<master::FuxiMaster>(
          &sim_, network_.get(), locks_.get(), &checkpoint_, &topology_,
          NodeId(1 + i), options_.master));
      masters_.back()->set_observability(&obs_);
    }
  } else {
    FUXI_CHECK(1 + options_.shards * options_.master_replicas <=
               kDirectoryNodeBase)
        << "shard masters would overflow the master NodeId range";
    FUXI_CHECK(options_.directory_replicas >= 1 &&
               kDirectoryNodeBase + options_.directory_replicas <=
                   kRouterNode)
        << "directory replicas would overflow their NodeId range";
    std::vector<NodeId> directory_nodes;
    for (int j = 0; j < options_.directory_replicas; ++j) {
      directory_nodes.push_back(NodeId(kDirectoryNodeBase + j));
    }
    std::vector<int64_t> shard_machines(
        static_cast<size_t>(options_.shards), 0);
    for (const cluster::Machine& machine : topology_.machines()) {
      ++shard_machines[static_cast<size_t>(shard_of_machine(machine.id))];
    }
    for (int k = 0; k < options_.shards; ++k) {
      master::FuxiMasterOptions shard_options = options_.master;
      shard_options.lock_name = shard_lock(k);
      shard_options.checkpoint_prefix = StrFormat("shard%d/", k);
      shard_options.shard = k;
      shard_options.shard_machine_count =
          shard_machines[static_cast<size_t>(k)];
      shard_options.directory_replicas = directory_nodes;
      for (int r = 0; r < options_.master_replicas; ++r) {
        masters_.push_back(std::make_unique<master::FuxiMaster>(
            &sim_, network_.get(), locks_.get(), &checkpoint_, &topology_,
            NodeId(1 + k * options_.master_replicas + r), shard_options));
        masters_.back()->set_observability(&obs_);
      }
    }
    for (NodeId node : directory_nodes) {
      directories_.push_back(std::make_unique<shard::ShardDirectory>(
          &sim_, network_.get(), node));
    }
    shard::RouterOptions router_options = options_.router;
    router_options.shards = options_.shards;
    router_options.directory = directory_nodes;
    router_options.seed = options_.seed ^ 0x5D111A6E5ull;
    router_ = std::make_unique<shard::SubmissionRouter>(
        &sim_, network_.get(), NodeId(kRouterNode), router_options);
    router_->set_observability(&obs_);
  }
  slowdown_.assign(topology_.machine_count(), 1.0);
  obs::Gauge* running = obs_.metrics.GetGauge("agent.running_processes");
  for (const cluster::Machine& machine : topology_.machines()) {
    hosts_.push_back(std::make_unique<agent::ProcessHost>(machine.id));
    hosts_.back()->set_running_gauge(running);
    agent::FuxiAgentOptions agent_options = options_.agent;
    if (options_.shards > 1) {
      agent_options.master_lock = shard_lock(shard_of_machine(machine.id));
    }
    agents_.push_back(std::make_unique<agent::FuxiAgent>(
        &sim_, network_.get(), locks_.get(), hosts_.back().get(),
        &topology_, NodeId(100 + machine.id.value()), agent_options));
    agents_.back()->set_metrics(&obs_.metrics);
    agents_.back()->set_audit(&obs_.audit);
  }

  if (options_.obs.telemetry.enabled) {
    // Derived probes: the observable symptoms the SLO watchdog's
    // standard rules watch (see chaos::RunCampaign). Probes are pure
    // reads of simulation state — sampling can never perturb a replay.
    obs_.telemetry.AddProbe("derived.agent.overcommit_units", [this] {
      // Sum of per-dimension excess (centicores + MB) that live agents'
      // capacity tables promise above physical capacity — the symptom
      // of a double-grant, visible the moment it happens (the invariant
      // monitor only *fails* the run after its sustained grace window).
      double units = 0;
      for (const cluster::Machine& machine : topology_.machines()) {
        agent::FuxiAgent* a =
            agents_[static_cast<size_t>(machine.id.value())].get();
        if (!a->is_alive()) continue;
        cluster::ResourceVector promised = a->TotalGrantedCapacity();
        units += static_cast<double>(
            std::max<int64_t>(0, promised.cpu() - machine.capacity.cpu()));
        units += static_cast<double>(std::max<int64_t>(
            0, promised.memory() - machine.capacity.memory()));
      }
      return units;
    });
    if (options_.shards > 1) {
      obs_.telemetry.AddProbe("derived.shard.imbalance", [this] {
        // Relative spread of granted CPU across shards: (max - min) /
        // max over per-shard sums; 0 when balanced or nothing granted.
        std::vector<int64_t> granted(
            static_cast<size_t>(options_.shards), 0);
        for (const cluster::Machine& machine : topology_.machines()) {
          agent::FuxiAgent* a =
              agents_[static_cast<size_t>(machine.id.value())].get();
          if (!a->is_alive()) continue;
          granted[static_cast<size_t>(shard_of_machine(machine.id))] +=
              a->TotalGrantedCapacity().cpu();
        }
        int64_t lo = *std::min_element(granted.begin(), granted.end());
        int64_t hi = *std::max_element(granted.begin(), granted.end());
        return hi > 0 ? static_cast<double>(hi - lo) /
                            static_cast<double>(hi)
                      : 0.0;
      });
    }
    obs_.telemetry.AddRate("net.decode_drops");
    telemetry_observer_ = sim_.AddPostEventObserver(
        [this](double now) { obs_.telemetry.Poll(now); });
  }
}

SimCluster::~SimCluster() {
  if (telemetry_observer_ != 0) {
    sim_.RemovePostEventObserver(telemetry_observer_);
  }
}

void SimCluster::Start() {
  for (auto& m : masters_) m->Start();
  for (auto& a : agents_) a->Start();
  for (auto& d : directories_) d->Start();
  if (router_ != nullptr) router_->Start();
}

master::FuxiMaster* SimCluster::primary() { return shard_primary(0); }

master::FuxiMaster* SimCluster::shard_primary(int shard) {
  NodeId holder = locks_->Holder(shard_lock(shard));
  for (auto& m : masters_) {
    if (m->node() == holder && m->is_primary()) return m.get();
  }
  return nullptr;
}

void SimCluster::KillShardPrimary(int shard) {
  master::FuxiMaster* p = shard_primary(shard);
  if (p != nullptr) p->Crash();
}

void SimCluster::SetAppMasterLauncher(
    agent::FuxiAgent::AppMasterLauncher launcher) {
  for (auto& a : agents_) a->set_app_master_launcher(launcher);
}

void SimCluster::KillPrimaryMaster() {
  master::FuxiMaster* p = primary();
  if (p != nullptr) p->Crash();
}

void SimCluster::HaltMachine(MachineId machine) {
  agent(machine)->HaltMachine();
  halted_.insert(machine);
}

void SimCluster::ReviveMachine(MachineId machine) {
  halted_.erase(machine);
  agent::FuxiAgent* a = agent(machine);
  if (!a->is_alive()) a->Restart();
}

int SimCluster::RestartDeadMasters() {
  int restarted = 0;
  for (auto& m : masters_) {
    if (!m->is_alive()) {
      m->Restart();
      ++restarted;
    }
  }
  return restarted;
}

void SimCluster::SetMachineHealth(MachineId machine, double score) {
  agent(machine)->set_health_score(score);
}

void SimCluster::SetMachineSlowdown(MachineId machine, double factor) {
  slowdown_[static_cast<size_t>(machine.value())] = factor;
}

}  // namespace fuxi::runtime
