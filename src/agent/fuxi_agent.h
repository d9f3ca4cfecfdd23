#ifndef FUXI_AGENT_FUXI_AGENT_H_
#define FUXI_AGENT_FUXI_AGENT_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "agent/capacity_seq_guard.h"
#include "agent/process_host.h"
#include "cluster/topology.h"
#include "common/ids.h"
#include "coord/lock_service.h"
#include "master/messages.h"
#include "net/network.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "sim/simulator.h"

namespace fuxi::agent {

struct FuxiAgentOptions {
  double heartbeat_interval = 1.0;
  /// How many times a crashed worker is restarted in place before the
  /// failure is only reported to the application master.
  int worker_restart_limit = 2;
  /// Time to bring a worker process up (package download + exec). The
  /// paper measures 11.84 s with 400 MB worker binaries (Table 2); the
  /// default models a warm package cache. This cost is exactly why
  /// container reuse (§3.2.3) matters.
  double worker_start_seconds = 2.0;
  /// Time to start an application master process (Table 2: 1.91 s).
  double app_master_start_seconds = 1.0;
  /// Every Nth heartbeat carries the agent's full allocation table even
  /// when the master did not ask, so the master can detect and repair
  /// agent/master capacity divergence (a lost capacity delta or stop
  /// request would otherwise leak processes forever). 0 disables the
  /// periodic report.
  int allocation_report_every = 10;
  /// Election lease whose holder this agent reports to; empty = the
  /// default FuxiMaster::kMasterLock. Sharded clusters point each agent
  /// at its shard's lease.
  std::string master_lock;
};

/// The per-machine daemon (paper §2.2): reports machine status to
/// FuxiMaster, starts/stops application workers on behalf of
/// application masters, and enforces resource capacity — if the granted
/// capacity shrinks below what is running, it kills processes
/// compulsorily ("resource capacity ensurance"); if the machine
/// overloads, the Cgroup policy kills the process exceeding its limit
/// the most.
///
/// Supports transparent failover: on restart it adopts the processes
/// still running in the machine's ProcessHost, re-learns its capacity
/// table from FuxiMaster, and asks each application master which
/// adopted workers to keep (§4.3.1).
class FuxiAgent : public sim::Actor {
 public:
  /// Asked to start an application master for a submitted app; wired by
  /// the job runtime (or test harness).
  using AppMasterLauncher =
      std::function<void(const master::StartAppMasterRpc&, MachineId)>;

  FuxiAgent(sim::Simulator* simulator, net::Network* network,
            coord::LockService* locks, ProcessHost* host,
            const cluster::ClusterTopology* topology, NodeId self,
            FuxiAgentOptions options = {});

  void Start();

  /// Simulated daemon crash: heartbeats stop, capacity table is lost.
  /// Running processes keep running (they live in the ProcessHost).
  void Crash();

  /// Restart after a crash: adopts running processes and rebuilds state
  /// from FuxiMaster and the application masters.
  void Restart();

  /// Machine halt (NodeDown fault): every process dies with the host.
  void HaltMachine();

  bool is_alive() const { return alive_; }
  NodeId node() const { return self_; }
  MachineId machine() const { return host_->machine(); }

  /// Fault injection: the health score reported in heartbeats
  /// (SlowMachine scenarios lower it).
  void set_health_score(double score) { health_score_ = score; }
  double health_score() const { return health_score_; }

  void set_app_master_launcher(AppMasterLauncher launcher) {
    am_launcher_ = std::move(launcher);
  }

  /// Capacity granted to (app, slot) according to the agent's table.
  int64_t CapacityOf(AppId app, uint32_t slot_id) const;

  /// Total resources the agent's capacity table promises (sum over
  /// entries of count x unit). The chaos InvariantMonitor compares this
  /// against the machine's physical capacity: a sustained excess means
  /// FuxiMaster double-granted the machine (e.g. a failover that did
  /// not restore existing grants before rescheduling).
  const cluster::ResourceVector& TotalGrantedCapacity() const {
    return granted_total_;
  }

  /// Rows in the agent's per-(app, slot) table: one per slot that holds
  /// granted capacity or a worker start in progress.
  size_t slot_rows() const { return slots_.size(); }

  /// Simulates a worker process crash (PartialWorkerFailure injection):
  /// the agent notices and applies its restart-in-place policy, at most
  /// worker_restart_limit times per worker lineage.
  void InjectWorkerCrash(WorkerId worker);

  uint64_t workers_started() const { return workers_started_; }
  uint64_t workers_killed_for_capacity() const {
    return workers_killed_for_capacity_;
  }
  uint64_t workers_killed_for_overload() const {
    return workers_killed_for_overload_;
  }

  /// Wires the cluster metrics registry in (null detaches). All agents
  /// of a cluster share the same instruments, so the counters aggregate
  /// cluster-wide starts/kills.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Wires the cluster decision-audit log in (null detaches). Each
  /// compulsory worker kill (capacity ensurance / overload eviction)
  /// commits a kAgentKill record so `fuxi explain` can attribute lost
  /// workers to the agent-side enforcement that killed them.
  void set_audit(obs::AuditLog* audit) { audit_ = audit; }

 private:
  /// Commits one kAgentKill decision record (no-op when detached).
  void AuditKill(AppId app, uint32_t slot_id, const char* cause);

  using CapacityKey = std::pair<AppId, uint32_t>;
  /// One (app, slot) row of the agent's table: the capacity FuxiMaster
  /// granted and the worker starts still in progress. A row lives while
  /// either count is nonzero.
  struct SlotState {
    CapacityKey key;
    resource::ScheduleUnitDef def;  ///< unit of the last capacity edit
    int64_t count = 0;              ///< granted units
    /// Starts accepted and still "downloading the package".
    int64_t launching = 0;
  };

  /// The row of `key`, or null. Never inserts.
  SlotState* FindSlot(CapacityKey key);
  /// The row of `key`, inserted empty when absent.
  SlotState& SlotFor(CapacityKey key);
  /// Erases `slot` once it holds neither capacity nor a start.
  void DropIfIdle(SlotState* slot);

  void OnCapacity(const master::AgentCapacityRpc& rpc);
  void OnStartWorker(const net::Envelope& env,
                     const master::StartWorkerRpc& rpc);
  void OnStopWorker(const master::StopWorkerRpc& rpc);
  void OnAdoptReply(const master::AdoptReplyRpc& rpc);
  void OnHeartbeatAck(const master::AgentHeartbeatAckRpc& rpc);
  void OnStartAppMaster(const master::StartAppMasterRpc& rpc);

  void HeartbeatTick();
  void SendHeartbeat(bool with_allocations);
  /// Cgroup soft/hard-limit policy (§2.2 isolation rule 2): when the
  /// machine's actual usage exceeds its capacity, kill the process
  /// whose real usage exceeds its own limit the most, until the load is
  /// acceptable again.
  void EnforceOverload();
  /// Kills processes of (app, slot) until the running count fits the
  /// granted capacity (resource capacity ensurance).
  void EnforceCapacity(AppId app, uint32_t slot_id);
  NodeId MasterNode() const;

  net::Network* network_;
  coord::LockService* locks_;
  ProcessHost* host_;
  const cluster::ClusterTopology* topology_;
  NodeId self_;
  FuxiAgentOptions options_;

  bool alive_ = false;
  uint64_t life_ = 0;
  double health_score_ = 1.0;
  uint64_t heartbeat_seq_ = 0;
  bool send_allocations_next_ = true;  ///< first contact reports state
  bool need_capacity_ = false;

  /// Capacity-channel replay guard. Deliberately kept across agent
  /// restarts: the master's counter is monotonic per generation, so the
  /// guard stays valid for the machine even when the daemon's table is
  /// lost.
  CapacitySeqGuard capacity_guard_;

  net::Endpoint endpoint_;
  /// The per-(app, slot) table, sorted by key: one flat array, so the
  /// lookups every StartWorkerRpc and capacity edit makes stay in
  /// contiguous memory.
  std::vector<SlotState> slots_;
  /// Sum over slots_ of def.resources x count, kept in step with every
  /// table edit (the telemetry overcommit probe and the invariant
  /// monitor read it for every agent, every tick).
  cluster::ResourceVector granted_total_;
  /// Restarts in place so far, keyed by the lineage's live worker id
  /// (a replacement inherits the count of the worker it replaces).
  std::map<WorkerId, int> restart_counts_;
  AppMasterLauncher am_launcher_;

  uint64_t workers_started_ = 0;
  uint64_t workers_killed_for_capacity_ = 0;
  uint64_t workers_killed_for_overload_ = 0;

  obs::Counter* started_counter_ = nullptr;
  obs::Counter* killed_capacity_counter_ = nullptr;
  obs::Counter* killed_overload_counter_ = nullptr;
  obs::AuditLog* audit_ = nullptr;
};

}  // namespace fuxi::agent

#endif  // FUXI_AGENT_FUXI_AGENT_H_
