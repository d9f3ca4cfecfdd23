#ifndef FUXI_MASTER_FUXI_MASTER_H_
#define FUXI_MASTER_FUXI_MASTER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/topology.h"
#include "common/ids.h"
#include "coord/checkpoint_store.h"
#include "coord/lock_service.h"
#include "master/messages.h"
#include "net/network.h"
#include "obs/observability.h"
#include "resource/delta_channel.h"
#include "resource/scheduler.h"
#include "sim/simulator.h"

namespace fuxi::master {

/// Tuning knobs for FuxiMaster. Times are virtual seconds.
struct FuxiMasterOptions {
  double lock_lease = 10.0;        ///< hot-standby lease duration
  double lock_renew_every = 3.0;
  double heartbeat_timeout = 4.0;  ///< agent silence before node-down
  double monitor_interval = 1.0;   ///< heartbeat/health check cadence
  /// Heavy, non-urgent work (health scoring roll-up, blacklist review)
  /// runs at this fixed interval — the paper's prioritized request
  /// handling (§3.4): urgent events are processed immediately, the rest
  /// in batch.
  double rollup_interval = 10.0;
  double health_disable_threshold = 0.3;
  double health_disable_after = 20.0;  ///< sustained low score duration
  /// Distinct JobMasters that must mark a machine bad before the
  /// cluster blacklists it (§4.3.2).
  int blacklist_votes = 3;
  /// Upper bound on the blacklisted fraction of the cluster, to stop
  /// blacklist abuse from draining the cluster.
  double blacklist_cap_fraction = 0.1;
  /// Application-master silence before FuxiMaster starts a new one
  /// (the AM heartbeat of §4.3.1; the periodic full-state reconcile
  /// doubles as the heartbeat).
  double app_master_timeout = 20.0;
  /// Starvation aging period fed to the scheduler (0 = disabled).
  double starvation_age_after = 0;
  /// Chaos-testing fault: when false, a newly elected primary opens
  /// machines for scheduling WITHOUT restoring the grants their agents
  /// report (skipping the Figure 7 soft-state rebuild). This reproduces
  /// the double-grant failover bug the chaos InvariantMonitor must
  /// catch; production behaviour is `true`.
  bool failover_restore_grants = true;
  /// Hierarchical tenant tree to create on election (cluster
  /// configuration). Paths are slash-separated ("tenant/org/user");
  /// missing ancestors appear as unbounded structural nodes. A flat
  /// quota group is a single-segment path with default weight and no
  /// preemption budget.
  struct TenantNode {
    std::string path;
    cluster::ResourceVector guarantee;
    double weight = 1.0;
    int64_t preemption_budget = -1;  ///< units one sweep may revoke; -1 = ∞
  };
  std::vector<TenantNode> tenants;
  resource::SchedulerOptions scheduler;

  // --- federation (fuxi::shard) -----------------------------------------
  // All defaults preserve legacy single-master behaviour byte-for-byte.

  /// Election lease this master contends for; empty = kMasterLock.
  /// Sharded clusters give each shard its own lease so elections are
  /// independent fault domains.
  std::string lock_name;
  /// Prefix for every checkpoint key, so shard masters sharing one
  /// CheckpointStore keep disjoint app / blacklist / generation records.
  std::string checkpoint_prefix;
  /// This master's shard index (stamped into directory status reports).
  int shard = 0;
  /// Machines this shard owns; 0 = the whole topology. Feeds the
  /// blacklist cap so per-shard caps stay proportional to shard size.
  int64_t shard_machine_count = 0;
  /// Shard-directory replicas to push ShardStatusRpc to (empty = none,
  /// the single-master case).
  std::vector<NodeId> directory_replicas;
  double shard_status_interval = 1.0;
};

/// The central resource manager (paper §2.2, §3): matches application
/// demand against machine supply with the incremental protocol, detects
/// faulty nodes, and supports hot-standby failover where the new
/// primary rebuilds all soft state from FuxiAgents and application
/// masters while only app descriptions and the cluster blacklist are
/// read from the checkpoint (Figure 7).
///
/// Two instances are normally created per cluster; whichever holds the
/// "fuxi_master" lock is primary. The standby ignores traffic until its
/// lock watch fires.
class FuxiMaster : public sim::Actor {
 public:
  static constexpr const char* kMasterLock = "fuxi_master";

  FuxiMaster(sim::Simulator* simulator, net::Network* network,
             coord::LockService* locks, coord::CheckpointStore* checkpoint,
             const cluster::ClusterTopology* topology, NodeId self,
             FuxiMasterOptions options = {});

  /// Joins the election; becomes primary immediately if the lock is
  /// free, otherwise arms a standby watch.
  void Start();

  /// Simulates a crash of this master process: it stops processing
  /// messages, releases nothing (the lease must expire), and loses all
  /// in-memory soft state.
  void Crash();

  /// Restarts a crashed instance (fresh soft state) and rejoins the
  /// election.
  void Restart();

  bool is_primary() const { return primary_; }
  bool is_alive() const { return alive_; }
  NodeId node() const { return self_; }

  /// Primary-only: the live scheduler (nullptr on standby/crashed).
  const resource::Scheduler* scheduler() const { return scheduler_.get(); }

  /// Machines currently disabled by the cluster blacklist.
  std::vector<MachineId> Blacklisted() const;

  /// Number of successful primary elections across the cluster's life.
  uint64_t generation() const { return generation_; }

  /// The lease this master contends for (options.lock_name or the
  /// kMasterLock default).
  const std::string& lock_name() const { return lock_name_; }

  /// Checkpoint records found damaged (torn writes) and skipped during
  /// the last hard-state recovery.
  uint64_t checkpoint_records_skipped() const {
    return checkpoint_records_skipped_;
  }

  /// Scheduling-decision latency samples (real wall-clock microseconds
  /// per request-path invocation) — the Figure 9 measurement.
  const std::vector<double>& decision_micros() const {
    return decision_micros_;
  }
  void EnableDecisionTiming(bool on) { time_decisions_ = on; }

  /// Wires the cluster-wide observability bundle in (null detaches).
  /// Resolves every instrument once so message handlers touch only
  /// plain pointers.
  void set_observability(obs::Observability* obs);

 private:
  struct AppRecord {
    AppId app;
    /// Fair-share tenant path (legacy flat group names are one-segment
    /// paths; checkpointed under the original "quota_group" JSON key).
    std::string tenant_path;
    double tenant_weight = 1.0;
    Json description;
    NodeId am_node;       ///< where grant messages go
    NodeId client;
    bool am_started = false;
    double last_contact = -1;  ///< AM liveness (any request traffic)
    uint64_t am_incarnation = 0;
    /// Grant-reconcile suspicion: (slot, machine) -> excess units the
    /// AM's last full state did not acknowledge. A discrepancy is only
    /// treated as a lost release when it persists across two
    /// consecutive full syncs — otherwise it is just a grant delta that
    /// was in flight when the AM snapshotted its state.
    std::map<std::pair<uint32_t, int64_t>, int64_t> suspected_lost;
    resource::DeltaSender<resource::GrantMessage> grant_sender;
    resource::DeltaReceiver<resource::RequestMessage> request_receiver;
  };

  struct AgentRecord {
    MachineId machine;
    NodeId node;
    double last_heartbeat = -1;
    double health_ewma = 1.0;
    double unhealthy_since = -1;
    bool online = false;
    /// Sequence stamp for AgentCapacityRpc messages to this machine
    /// (replay/reorder guard; see the message comment).
    uint64_t capacity_seq = 0;
  };

  // --- election / failover ---
  void TryBecomePrimary();
  void BecomePrimary();
  void StepDown();
  void RenewLease();
  /// Rebuilds hard state (apps, blacklist) from the checkpoint; soft
  /// state arrives from agents/app-masters afterwards.
  void RecoverHardState();

  // --- message handlers (primary only) ---
  void OnSubmitApp(const net::Envelope& env, const SubmitAppRpc& rpc);
  void OnStopApp(const net::Envelope& env, const StopAppRpc& rpc);
  void OnRequest(const net::Envelope& env, const RequestRpc& rpc);
  void OnResync(const net::Envelope& env, const ResyncRpc& rpc);
  void OnHeartbeat(const net::Envelope& env, const AgentHeartbeatRpc& rpc);
  void OnBadMachineReport(const net::Envelope& env,
                          const BadMachineReportRpc& rpc);

  /// Applies one (ordered, deduplicated) request message to the
  /// scheduler and emits resulting deltas.
  void ApplyRequestMessage(AppRecord* record,
                           const resource::RequestMessage& msg,
                           bool is_full);
  void ApplyFullState(AppRecord* record,
                      const resource::RequestMessage& msg);

  /// Fans a scheduling result out as grant deltas to application
  /// masters and capacity deltas to agents.
  void Dispatch(const resource::SchedulingResult& result);
  void SendFullGrantState(AppRecord* record);
  /// Pushes the scheduler's authoritative per-app capacity for one
  /// machine as a full snapshot — the repair step of the periodic
  /// agent/master capacity reconcile.
  void SendFullCapacity(MachineId machine);

  // --- periodic work ---
  void MonitorTick();
  void RollupTick();
  void MarkMachineDown(MachineId machine, const std::string& why);
  void DisableMachine(MachineId machine, const std::string& why);
  /// Commits a kMachineEvent decision record (down / blacklist) so the
  /// audit dump explains machine-availability flips alongside the
  /// placement decisions they invalidate.
  void AuditMachineEvent(MachineId machine, const std::string& note);
  void CheckpointBlacklist();
  void SyncStateGauges();
  /// Pushes this shard's load/primary status to the directory replicas
  /// (no-op unless options.directory_replicas is set).
  void SendShardStatus();

  // Checkpoint keys, namespaced by options.checkpoint_prefix.
  std::string AppKeyFor(AppId app) const;
  std::string AppKeyPrefix() const;
  std::string BlacklistKeyFor() const;
  std::string GenerationKeyFor() const;

  AppRecord* FindApp(AppId app);
  resource::ScheduleUnitDef LookupDef(AppId app, uint32_t slot) const;

  net::Network* network_;
  coord::LockService* locks_;
  coord::CheckpointStore* checkpoint_;
  const cluster::ClusterTopology* topology_;
  NodeId self_;
  FuxiMasterOptions options_;
  std::string lock_name_;  ///< resolved lease name (options or default)

  bool alive_ = true;
  bool primary_ = false;
  uint64_t generation_ = 0;
  /// Incarnation counter: timers from a crashed life must not act.
  uint64_t life_ = 0;

  net::Endpoint endpoint_;
  std::unique_ptr<resource::Scheduler> scheduler_;
  std::map<AppId, AppRecord> apps_;
  std::map<MachineId, AgentRecord> agents_;
  std::set<MachineId> blacklist_;
  std::map<MachineId, std::set<AppId>> blacklist_votes_;
  MachineId next_am_machine_{0};

  bool time_decisions_ = false;
  std::vector<double> decision_micros_;
  uint64_t checkpoint_records_skipped_ = 0;

  obs::Observability* obs_ = nullptr;
  obs::Counter* grant_units_counter_ = nullptr;
  obs::Counter* revoke_units_counter_ = nullptr;
  obs::Counter* blacklist_adds_counter_ = nullptr;
  obs::Counter* machines_down_counter_ = nullptr;
  obs::Counter* elections_counter_ = nullptr;
  obs::Counter* am_restarts_counter_ = nullptr;
  obs::Counter* checkpoint_skips_counter_ = nullptr;
  obs::Gauge* apps_gauge_ = nullptr;
  obs::Gauge* blacklist_gauge_ = nullptr;
  obs::Gauge* request_backlog_gauge_ = nullptr;
  Histogram* schedule_wall_us_ = nullptr;
};

}  // namespace fuxi::master

#endif  // FUXI_MASTER_FUXI_MASTER_H_
