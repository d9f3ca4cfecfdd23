#include "agent/fuxi_agent.h"

#include <algorithm>

#include "common/logging.h"
#include "master/fuxi_master.h"

namespace fuxi::agent {

namespace {

/// The first row of the key-sorted table `rows` not below `key`.
template <typename Rows>
auto LowerBound(Rows& rows, const std::pair<AppId, uint32_t>& key) {
  return std::lower_bound(
      rows.begin(), rows.end(), key,
      [](const auto& row, const auto& k) { return row.key < k; });
}

/// The row of `key` in the key-sorted table `rows`, or null.
template <typename Rows>
auto FindRow(Rows& rows, const std::pair<AppId, uint32_t>& key)
    -> decltype(rows.data()) {
  auto it = LowerBound(rows, key);
  return it != rows.end() && it->key == key ? &*it : nullptr;
}

}  // namespace

FuxiAgent::FuxiAgent(sim::Simulator* simulator, net::Network* network,
                     coord::LockService* locks, ProcessHost* host,
                     const cluster::ClusterTopology* topology, NodeId self,
                     FuxiAgentOptions options)
    : Actor(simulator),
      network_(network),
      locks_(locks),
      host_(host),
      topology_(topology),
      self_(self),
      options_(options) {
  endpoint_.Handle<master::AgentCapacityRpc>(
      [this](const net::Envelope&, const master::AgentCapacityRpc& rpc) {
        if (alive_) OnCapacity(rpc);
      });
  endpoint_.Handle<master::StartWorkerRpc>(
      [this](const net::Envelope& env, const master::StartWorkerRpc& rpc) {
        if (alive_) OnStartWorker(env, rpc);
      });
  endpoint_.Handle<master::StopWorkerRpc>(
      [this](const net::Envelope&, const master::StopWorkerRpc& rpc) {
        if (alive_) OnStopWorker(rpc);
      });
  endpoint_.Handle<master::AdoptReplyRpc>(
      [this](const net::Envelope&, const master::AdoptReplyRpc& rpc) {
        if (alive_) OnAdoptReply(rpc);
      });
  endpoint_.Handle<master::AgentHeartbeatAckRpc>(
      [this](const net::Envelope&, const master::AgentHeartbeatAckRpc& rpc) {
        if (alive_) OnHeartbeatAck(rpc);
      });
  endpoint_.Handle<master::StartAppMasterRpc>(
      [this](const net::Envelope&, const master::StartAppMasterRpc& rpc) {
        if (alive_) OnStartAppMaster(rpc);
      });
}

void FuxiAgent::Start() {
  FUXI_CHECK(!alive_);
  alive_ = true;
  ++life_;
  network_->Register(self_, &endpoint_);
  send_allocations_next_ = true;
  HeartbeatTick();
}

void FuxiAgent::Crash() {
  if (!alive_) return;
  alive_ = false;
  ++life_;
  network_->Unregister(self_);
  // Soft state lost with the daemon; processes keep running in the
  // ProcessHost (user-transparent agent failover, §4.3.1).
  slots_.clear();
  granted_total_ = {};
  restart_counts_.clear();
}

void FuxiAgent::Restart() {
  if (alive_) return;
  alive_ = true;
  ++life_;
  network_->Register(self_, &endpoint_);
  // 1. Adopt running processes.
  std::map<std::pair<AppId, NodeId>, std::vector<WorkerId>> by_owner;
  for (const Process* process : host_->Alive()) {
    by_owner[{process->app, process->owner_am}].push_back(process->id);
  }
  // 2. Ask each application master for its authoritative worker list.
  for (const auto& [owner, workers] : by_owner) {
    master::AdoptQueryRpc query;
    query.app = owner.first;
    query.machine = machine();
    query.agent_node = self_;
    query.workers = workers;
    network_->Send(self_, owner.second, query);
  }
  // 3. Re-learn the capacity table from FuxiMaster and resume
  // heartbeating (allocations included so a failed-over master can
  // restore soft state too).
  need_capacity_ = true;
  send_allocations_next_ = true;
  HeartbeatTick();
}

void FuxiAgent::HaltMachine() {
  // NodeDown: the whole machine dies — daemon and every process.
  std::vector<WorkerId> to_kill;
  for (const Process* process : host_->Alive()) {
    to_kill.push_back(process->id);
  }
  for (WorkerId id : to_kill) host_->Kill(id);
  Crash();
}

NodeId FuxiAgent::MasterNode() const {
  return locks_->Holder(options_.master_lock.empty()
                            ? master::FuxiMaster::kMasterLock
                            : options_.master_lock);
}

void FuxiAgent::HeartbeatTick() {
  if (!alive_) return;
  EnforceOverload();
  bool with_allocations = send_allocations_next_;
  // Periodic divergence repair: report the allocation table so the
  // master can compare it against the scheduler's grants and push a
  // corrective full snapshot when the two drifted apart.
  if (options_.allocation_report_every > 0 &&
      (heartbeat_seq_ + 1) % options_.allocation_report_every == 0) {
    with_allocations = true;
  }
  SendHeartbeat(with_allocations);
  send_allocations_next_ = false;
  uint64_t life = life_;
  After(options_.heartbeat_interval, [this, life] {
    if (alive_ && life == life_) HeartbeatTick();
  });
}

void FuxiAgent::SendHeartbeat(bool with_allocations) {
  NodeId primary = MasterNode();
  if (!primary.valid()) return;  // election in progress; try next tick
  master::AgentHeartbeatRpc hb;
  hb.machine = machine();
  hb.agent_node = self_;
  hb.seq = ++heartbeat_seq_;
  hb.health_score = health_score_;
  hb.capacity = topology_->machine(machine()).capacity;
  hb.need_capacity = need_capacity_;
  if (with_allocations) {
    hb.carries_allocations = true;
    // Report from the capacity table when we have one (authoritative),
    // otherwise from adopted processes (post-restart).
    bool has_capacity =
        std::any_of(slots_.begin(), slots_.end(),
                    [](const SlotState& slot) { return slot.count > 0; });
    if (has_capacity) {
      for (const SlotState& slot : slots_) {
        if (slot.count <= 0) continue;
        hb.allocations.push_back(
            {slot.key.first, slot.key.second, slot.def, slot.count});
      }
    } else {
      // One allocation per (app, slot) run of live processes, sized by
      // the run's oldest process.
      for (const ProcessHost::SlotEntry& entry : host_->AliveByApp()) {
        if (hb.allocations.empty() ||
            hb.allocations.back().app != entry.app ||
            hb.allocations.back().slot_id != entry.slot_id) {
          master::AgentAllocation alloc{entry.app, entry.slot_id,
                                        resource::ScheduleUnitDef{}, 0};
          alloc.def.slot_id = entry.slot_id;
          alloc.def.resources = entry.process->limit;
          hb.allocations.push_back(alloc);
        }
        hb.allocations.back().count += 1;
      }
    }
  }
  network_->Send(self_, primary, hb);
}

void FuxiAgent::OnHeartbeatAck(const master::AgentHeartbeatAckRpc& rpc) {
  (void)rpc;
  if (rpc.need_allocations) send_allocations_next_ = true;
}

void FuxiAgent::OnCapacity(const master::AgentCapacityRpc& rpc) {
  // Deltas must apply exactly once or the table drifts from the
  // scheduler's view.
  if (!capacity_guard_.Accept(rpc.master_generation, rpc.seq, rpc.full)) {
    return;
  }
  if (rpc.full) {
    // The snapshot replaces every grant; starts in progress stay.
    std::erase_if(slots_,
                  [](const SlotState& slot) { return slot.launching == 0; });
    for (SlotState& slot : slots_) slot.count = 0;
    granted_total_ = {};
    need_capacity_ = false;
  }
  for (const master::AgentCapacityRpc::Entry& entry : rpc.entries) {
    SlotState& slot = SlotFor({entry.app, entry.slot_id});
    granted_total_ -= slot.def.resources * slot.count;
    slot.def = entry.def;
    if (rpc.full) {
      slot.count = entry.delta;
    } else {
      slot.count += entry.delta;
    }
    if (slot.count < 0) slot.count = 0;
    granted_total_ += slot.def.resources * slot.count;
    // Enforcement kills and sends but never edits the table, so `slot`
    // stays valid; at count 0 it leaves no process of the slot running.
    EnforceCapacity(entry.app, entry.slot_id);
    DropIfIdle(&slot);
  }
  if (rpc.full) {
    // A full snapshot is authoritative for the whole machine: any live
    // process whose (app, slot) the snapshot does not cover lost its
    // grant (e.g. a revocation delta or the AM's stop request was lost)
    // and must be reaped, or it would leak forever.
    for (const auto& [app, slot_id] : host_->AliveSlots()) {
      EnforceCapacity(app, slot_id);
    }
  }
}

void FuxiAgent::EnforceCapacity(AppId app, uint32_t slot_id) {
  int64_t allowed = CapacityOf(app, slot_id);
  if (static_cast<int64_t>(host_->AliveCountOf(app, slot_id)) <= allowed) {
    return;
  }
  std::vector<const Process*> running = host_->AliveOf(app, slot_id);
  // Resource capacity ensurance (§2.2): when capacity decreases and the
  // application master did not stop a process itself, the agent kills
  // compulsorily — newest first, so long-running work survives.
  while (static_cast<int64_t>(running.size()) > allowed) {
    const Process* victim = running.back();
    running.pop_back();
    NodeId owner = victim->owner_am;
    master::WorkerCrashedRpc note;
    note.app = app;
    note.slot_id = slot_id;
    note.worker = victim->id;
    note.machine = machine();
    note.restarted = false;
    host_->Kill(victim->id);
    ++workers_killed_for_capacity_;
    if (killed_capacity_counter_ != nullptr) killed_capacity_counter_->Add();
    AuditKill(app, slot_id, "capacity");
    network_->Send(self_, owner, note);
  }
}

void FuxiAgent::EnforceOverload() {
  const cluster::ResourceVector& capacity =
      topology_->machine(machine()).capacity;
  while (true) {
    cluster::ResourceVector actual = host_->TotalActualUsage();
    if (actual.FitsIn(capacity)) return;
    // Pick the process whose real usage exceeds its own limit the most
    // (paper §2.2: "select the process whose real resource usage
    // exceeds its own resource usage most").
    const Process* victim = nullptr;
    double worst_excess = 0;
    for (const Process* process : host_->Alive()) {
      cluster::ResourceVector over = process->usage - process->limit;
      double excess = over.ClampNonNegative().DominantShare(capacity);
      if (victim == nullptr || excess > worst_excess) {
        victim = process;
        worst_excess = excess;
      }
    }
    if (victim == nullptr) return;
    master::WorkerCrashedRpc note;
    note.app = victim->app;
    note.slot_id = victim->slot_id;
    note.worker = victim->id;
    note.machine = machine();
    note.restarted = false;
    NodeId owner = victim->owner_am;
    host_->Kill(victim->id);
    ++workers_killed_for_overload_;
    if (killed_overload_counter_ != nullptr) killed_overload_counter_->Add();
    AuditKill(note.app, note.slot_id, "overload");
    network_->Send(self_, owner, note);
  }
}

void FuxiAgent::OnStartWorker(const net::Envelope& env,
                              const master::StartWorkerRpc& rpc) {
  (void)env;
  master::WorkerStartedRpc reply;
  reply.plan_id = rpc.plan_id;
  reply.machine = machine();
  CapacityKey key{rpc.app, rpc.slot_id};
  SlotState* slot = FindSlot(key);
  int64_t allowed = slot == nullptr ? 0 : slot->count;
  int64_t launching = slot == nullptr ? 0 : slot->launching;
  int64_t running =
      static_cast<int64_t>(host_->AliveCountOf(rpc.app, rpc.slot_id));
  if (running + launching >= allowed) {
    // The agent only starts processes backed by granted capacity
    // (process isolation rule 1, §2.2).
    reply.ok = false;
    reply.error = "no capacity granted for this app/slot on the machine";
    for (const Process* p : host_->AliveOf(rpc.app, rpc.slot_id)) {
      reply.running.push_back(p->id);
    }
    network_->Send(self_, rpc.am_node, reply);
    return;
  }
  // Worker start is not free: the package must be fetched and the
  // process brought up (Table 2's worker start overhead).
  slot->launching += 1;
  uint64_t life = life_;
  cluster::ResourceVector limit = slot->def.resources;
  master::StartWorkerRpc plan = rpc;
  After(options_.worker_start_seconds, [this, life, key, limit, plan] {
    if (!alive_ || life != life_) return;
    // The row is still here: this start's own count holds it.
    SlotState* slot = FindSlot(key);
    FUXI_CHECK(slot != nullptr);
    slot->launching -= 1;
    // Re-check capacity: it may have been revoked during the download.
    int64_t now_allowed = slot->count;
    DropIfIdle(slot);
    master::WorkerStartedRpc late_reply;
    late_reply.plan_id = plan.plan_id;
    late_reply.machine = machine();
    int64_t now_running = static_cast<int64_t>(
        host_->AliveCountOf(plan.app, plan.slot_id));
    if (now_running >= now_allowed) {
      late_reply.ok = false;
      late_reply.error = "capacity revoked during worker start";
      network_->Send(self_, plan.am_node, late_reply);
      return;
    }
    WorkerId worker = host_->Launch(plan.app, plan.slot_id, plan.am_node,
                                    limit, plan.plan, Now());
    ++workers_started_;
    if (started_counter_ != nullptr) started_counter_->Add();
    late_reply.ok = true;
    late_reply.worker = worker;
    network_->Send(self_, plan.am_node, late_reply);
  });
}

void FuxiAgent::OnStopWorker(const master::StopWorkerRpc& rpc) {
  host_->Kill(rpc.worker);
  restart_counts_.erase(rpc.worker);
}

void FuxiAgent::OnAdoptReply(const master::AdoptReplyRpc& rpc) {
  // Kill adopted workers of this app that its master no longer wants.
  std::set<WorkerId> keep(rpc.keep.begin(), rpc.keep.end());
  std::vector<WorkerId> to_kill;
  for (const Process* process : host_->Alive()) {
    if (process->app == rpc.app && keep.count(process->id) == 0) {
      to_kill.push_back(process->id);
    }
  }
  for (WorkerId id : to_kill) host_->Kill(id);
}

void FuxiAgent::InjectWorkerCrash(WorkerId worker) {
  const Process* process = host_->Find(worker);
  if (process == nullptr || !alive_) return;
  Process copy = *process;
  host_->Kill(worker);

  master::WorkerCrashedRpc note;
  note.app = copy.app;
  note.slot_id = copy.slot_id;
  note.worker = worker;
  note.machine = machine();

  // The budget belongs to the lineage, not to one process: take the
  // crashed worker's count and hand it on to its replacement.
  int restarts = 0;
  if (auto it = restart_counts_.find(worker); it != restart_counts_.end()) {
    restarts = it->second;
    restart_counts_.erase(it);
  }
  if (restarts < options_.worker_restart_limit) {
    // Restart in place under the same grant (paper: the agent watches
    // the worker's status and restarts it if it crashes).
    WorkerId replacement = host_->Launch(copy.app, copy.slot_id,
                                         copy.owner_am, copy.limit,
                                         copy.plan, Now());
    restart_counts_[replacement] = restarts + 1;
    ++workers_started_;
    if (started_counter_ != nullptr) started_counter_->Add();
    note.restarted = true;
    note.replacement = replacement;
  }
  network_->Send(self_, copy.owner_am, note);
}

int64_t FuxiAgent::CapacityOf(AppId app, uint32_t slot_id) const {
  const SlotState* slot = FindRow(slots_, {app, slot_id});
  return slot == nullptr ? 0 : slot->count;
}

FuxiAgent::SlotState* FuxiAgent::FindSlot(CapacityKey key) {
  return FindRow(slots_, key);
}

FuxiAgent::SlotState& FuxiAgent::SlotFor(CapacityKey key) {
  auto it = LowerBound(slots_, key);
  if (it == slots_.end() || it->key != key) {
    it = slots_.insert(it, SlotState{key, {}, 0, 0});
  }
  return *it;
}

void FuxiAgent::DropIfIdle(SlotState* slot) {
  if (slot->count == 0 && slot->launching == 0) {
    slots_.erase(slots_.begin() + (slot - slots_.data()));
  }
}

void FuxiAgent::AuditKill(AppId app, uint32_t slot_id, const char* cause) {
  if (audit_ == nullptr) return;
  obs::DecisionRecord rec;
  rec.kind = obs::DecisionKind::kAgentKill;
  rec.app = app.value();
  rec.slot = slot_id;
  rec.machine = machine().value();
  rec.units = 1;
  rec.note = cause;
  audit_->Commit(std::move(rec));
}

void FuxiAgent::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    started_counter_ = killed_capacity_counter_ = killed_overload_counter_ =
        nullptr;
    return;
  }
  started_counter_ = metrics->GetCounter("agent.workers_started");
  killed_capacity_counter_ =
      metrics->GetCounter("agent.workers_killed_for_capacity");
  killed_overload_counter_ =
      metrics->GetCounter("agent.workers_killed_for_overload");
}

void FuxiAgent::OnStartAppMaster(const master::StartAppMasterRpc& rpc) {
  // Starting the JobMaster process also takes time (Table 2: ~1.9 s).
  uint64_t life = life_;
  After(options_.app_master_start_seconds, [this, life, rpc] {
    if (!alive_ || life != life_) return;
    if (am_launcher_) am_launcher_(rpc, machine());
  });
}

}  // namespace fuxi::agent
