#ifndef FUXI_MASTER_MESSAGES_H_
#define FUXI_MASTER_MESSAGES_H_

#include <string>
#include <vector>

#include "cluster/resource_vector.h"
#include "common/ids.h"
#include "common/json.h"
#include "resource/protocol.h"
#include "wire/wire.h"

namespace fuxi::master {

// ---------------------------------------------------------------------
// Application master <-> FuxiMaster (the incremental resource protocol)
// ---------------------------------------------------------------------

/// Application master → FuxiMaster: stamped incremental (or full-state)
/// resource request.
struct RequestRpc {
  AppId app;
  NodeId reply_to;  ///< where grant deltas should be sent
  /// Application-master incarnation: bumps when the AM restarts, so the
  /// master knows to reset both delta channels (the restarted AM's
  /// sequence numbers start over).
  uint64_t incarnation = 1;
  resource::StampedRequest msg;
};

/// FuxiMaster → application master: stamped grant deltas / full state.
struct GrantRpc {
  resource::StampedGrant msg;
};

/// Either side → the other: "my receiver lost sync, send full state".
struct ResyncRpc {
  AppId app;
  NodeId reply_to;  ///< valid when sent by an application master
  uint64_t incarnation = 0;  ///< nonzero when sent by a restarted AM
};

/// Application master → FuxiMaster: report a machine it considers bad
/// (the job-level blacklist bubbling up for cross-job judgement, §4.3.2).
struct BadMachineReportRpc {
  AppId app;
  MachineId machine;
};

// ---------------------------------------------------------------------
// FuxiAgent <-> FuxiMaster
// ---------------------------------------------------------------------

/// One application's allocation on a machine, as the agent sees it.
struct AgentAllocation {
  AppId app;
  uint32_t slot_id = 0;
  resource::ScheduleUnitDef def;
  int64_t count = 0;
};

/// FuxiAgent → FuxiMaster: periodic heartbeat with health plug-in
/// metrics (§4.3.2's disk statistics / machine load / network I/O score)
/// and, on demand, the machine's full allocation state.
struct AgentHeartbeatRpc {
  MachineId machine;
  NodeId agent_node;
  uint64_t seq = 0;
  double health_score = 1.0;  ///< 1.0 healthy .. 0.0 dead
  cluster::ResourceVector capacity;
  bool carries_allocations = false;
  std::vector<AgentAllocation> allocations;
  /// Set by a restarted agent that lost its capacity table; the master
  /// answers with a full AgentCapacityRpc.
  bool need_capacity = false;
};

/// FuxiMaster → FuxiAgent: authoritative per-app capacity on the
/// machine (sent as deltas after scheduling decisions; as absolute
/// counts with `full` set, e.g. after an agent restart).
struct AgentCapacityRpc {
  struct Entry {
    AppId app;
    uint32_t slot_id = 0;
    resource::ScheduleUnitDef def;
    int64_t delta = 0;  ///< delta, or absolute count when `full`
  };
  /// Per-(master generation, machine) sequence number. Deltas commute,
  /// so reordering among them is harmless, but a duplicated delta would
  /// double-apply and a delta reordered behind a later full snapshot
  /// would re-add capacity the snapshot already covers. The agent drops
  /// any message whose seq it has already applied and any message older
  /// than the last full snapshot.
  uint64_t master_generation = 0;
  uint64_t seq = 0;
  bool full = false;
  std::vector<Entry> entries;
};

/// FuxiMaster → FuxiAgent: heartbeat acknowledgement. When the master
/// has no record of the agent (fresh election, or the agent was marked
/// down), it sets `need_allocations` and the agent's next heartbeat
/// carries its full allocation table so the master can restore the
/// soft state (Figure 7).
struct AgentHeartbeatAckRpc {
  uint64_t master_generation = 0;
  bool need_allocations = false;
};

/// FuxiMaster (newly elected primary) → everyone: "re-send your state".
/// Agents answer with a heartbeat carrying allocations; application
/// masters answer with a full-state RequestRpc (paper Figure 7).
struct MasterRecoveryAnnounceRpc {
  NodeId new_master;
  uint64_t master_generation = 0;
};

/// Shard primary → shard-directory replicas (src/shard): periodic load
/// and leadership report. Replicas keep the entry with the highest
/// generation, so a deposed primary's stale reports are fenced out the
/// same way its grants are.
struct ShardStatusRpc {
  int32_t shard = 0;
  NodeId primary;
  uint64_t generation = 0;
  int64_t machines_online = 0;
  cluster::ResourceVector total;    ///< capacity of online machines
  cluster::ResourceVector granted;  ///< currently promised to apps
};

// ---------------------------------------------------------------------
// Client <-> FuxiMaster (application lifecycle)
// ---------------------------------------------------------------------

/// Client → FuxiMaster: launch an application (e.g. a Fuxi job). The
/// description is the hard state checkpointed by the master.
///
/// v2: the flat `quota_group` became a hierarchical `tenant_path`
/// ("tenant/org/user"), plus a fair-share `weight` for the tenant leaf.
/// v1 frames still decode: the old group name lands in `tenant_path`
/// (a single-segment path *is* a root-level tenant) and the weight
/// defaults to 1.0.
struct SubmitAppRpc {
  AppId app;
  std::string tenant_path;
  Json description;
  NodeId client;
  double weight = 1.0;
};

/// FuxiMaster → client: submission outcome.
struct SubmitAppReplyRpc {
  AppId app;
  bool accepted = false;
  std::string error;
};

/// FuxiMaster → FuxiAgent: start an application master process for a
/// submitted app on this machine.
struct StartAppMasterRpc {
  AppId app;
  Json description;
};

/// Client or master → FuxiMaster: tear an application down.
struct StopAppRpc {
  AppId app;
};

// ---------------------------------------------------------------------
// Application master <-> FuxiAgent (work plans, §2.2)
// ---------------------------------------------------------------------

/// Application master → FuxiAgent: start a worker process under a
/// previously granted unit. `plan` carries package location / start-up
/// parameters (opaque to the agent): the application master's one shared
/// description, which the launched process keeps pointing at.
struct StartWorkerRpc {
  AppId app;
  uint32_t slot_id = 0;
  NodeId am_node;
  uint64_t plan_id = 0;  ///< echo token for the reply
  SharedJson plan;
};

/// FuxiAgent → application master: worker launch outcome. On a
/// capacity refusal the agent reports the workers it already runs for
/// that (app, slot): if the AM's original start reply was lost it can
/// adopt the orphan instead of retrying into the same refusal forever.
struct WorkerStartedRpc {
  uint64_t plan_id = 0;
  WorkerId worker;
  MachineId machine;
  bool ok = false;
  std::string error;
  std::vector<WorkerId> running;  ///< set only on refusal
};

/// Application master → FuxiAgent: stop a worker.
struct StopWorkerRpc {
  WorkerId worker;
};

/// FuxiAgent → application master: a worker died; if the agent could
/// restart it in place (paper: "FuxiAgent watches the worker's status
/// and restarts it if it crashes"), `restarted` is set and
/// `replacement` names the new process.
struct WorkerCrashedRpc {
  AppId app;
  uint32_t slot_id = 0;
  WorkerId worker;
  WorkerId replacement;
  MachineId machine;
  bool restarted = false;
};

/// Restarted FuxiAgent → application master: "I adopted these running
/// workers of yours; which should survive?" (agent failover, §4.3.1).
struct AdoptQueryRpc {
  AppId app;
  MachineId machine;
  NodeId agent_node;
  std::vector<WorkerId> workers;
};

/// Application master → restarted FuxiAgent: the workers to keep.
struct AdoptReplyRpc {
  AppId app;
  MachineId machine;
  std::vector<WorkerId> keep;
};

// ---------------------------------------------------------------------
// Wire layouts (fuxi::wire, DESIGN.md §10). Every RPC above is a framed
// top-level message.
// ---------------------------------------------------------------------

// v2: the embedded StampedRequest carries PlanningHints (fuxi::planner).
FUXI_WIRE_MESSAGE(RequestRpc, 2, m.app, m.reply_to, m.incarnation, m.msg)
FUXI_WIRE_MESSAGE(GrantRpc, 1, m.msg)
FUXI_WIRE_MESSAGE(ResyncRpc, 1, m.app, m.reply_to, m.incarnation)
FUXI_WIRE_MESSAGE(BadMachineReportRpc, 1, m.app, m.machine)
FUXI_WIRE_FIELDS(AgentAllocation, m.app, m.slot_id, m.def, m.count)
FUXI_WIRE_MESSAGE(AgentHeartbeatRpc, 1, m.machine, m.agent_node, m.seq,
                  m.health_score, m.capacity, m.carries_allocations,
                  m.allocations, m.need_capacity)
FUXI_WIRE_FIELDS(AgentCapacityRpc::Entry, m.app, m.slot_id, m.def, m.delta)
FUXI_WIRE_MESSAGE(AgentCapacityRpc, 1, m.master_generation, m.seq, m.full,
                  m.entries)
FUXI_WIRE_MESSAGE(AgentHeartbeatAckRpc, 1, m.master_generation,
                  m.need_allocations)
FUXI_WIRE_MESSAGE(MasterRecoveryAnnounceRpc, 1, m.new_master,
                  m.master_generation)
FUXI_WIRE_MESSAGE(ShardStatusRpc, 1, m.shard, m.primary, m.generation,
                  m.machines_online, m.total, m.granted)
// v2: quota_group became tenant_path + weight. v1 frames still decode, so
// the codec is written by hand (messages_wire.cc).
FUXI_WIRE_MESSAGE(SubmitAppRpc, wire::Versions(2, 1))
void WireEncode(wire::Writer& w, const SubmitAppRpc& m);
Status WireDecode(wire::Reader& r, SubmitAppRpc& m);
FUXI_WIRE_MESSAGE(SubmitAppReplyRpc, 1, m.app, m.accepted, m.error)
FUXI_WIRE_MESSAGE(StartAppMasterRpc, 1, m.app, m.description)
FUXI_WIRE_MESSAGE(StopAppRpc, 1, m.app)
FUXI_WIRE_MESSAGE(StartWorkerRpc, 1, m.app, m.slot_id, m.am_node, m.plan_id,
                  m.plan)
FUXI_WIRE_MESSAGE(WorkerStartedRpc, 1, m.plan_id, m.worker, m.machine, m.ok,
                  m.error, m.running)
FUXI_WIRE_MESSAGE(StopWorkerRpc, 1, m.worker)
FUXI_WIRE_MESSAGE(WorkerCrashedRpc, 1, m.app, m.slot_id, m.worker,
                  m.replacement, m.machine, m.restarted)
FUXI_WIRE_MESSAGE(AdoptQueryRpc, 1, m.app, m.machine, m.agent_node,
                  m.workers)
FUXI_WIRE_MESSAGE(AdoptReplyRpc, 1, m.app, m.machine, m.keep)

}  // namespace fuxi::master

#endif  // FUXI_MASTER_MESSAGES_H_
