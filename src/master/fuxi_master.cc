#include "master/fuxi_master.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/strings.h"

namespace fuxi::master {

namespace {

constexpr const char* kAppKeyPrefix = "fuxi/app/";
constexpr const char* kBlacklistKey = "fuxi/blacklist";
constexpr const char* kGenerationKey = "fuxi/master/generation";

}  // namespace

std::string FuxiMaster::AppKeyPrefix() const {
  return options_.checkpoint_prefix + kAppKeyPrefix;
}

std::string FuxiMaster::AppKeyFor(AppId app) const {
  return AppKeyPrefix() + std::to_string(app.value());
}

std::string FuxiMaster::BlacklistKeyFor() const {
  return options_.checkpoint_prefix + kBlacklistKey;
}

std::string FuxiMaster::GenerationKeyFor() const {
  return options_.checkpoint_prefix + kGenerationKey;
}

FuxiMaster::FuxiMaster(sim::Simulator* simulator, net::Network* network,
                       coord::LockService* locks,
                       coord::CheckpointStore* checkpoint,
                       const cluster::ClusterTopology* topology, NodeId self,
                       FuxiMasterOptions options)
    : Actor(simulator),
      network_(network),
      locks_(locks),
      checkpoint_(checkpoint),
      topology_(topology),
      self_(self),
      options_(std::move(options)),
      lock_name_(options_.lock_name.empty() ? kMasterLock
                                            : options_.lock_name) {
  endpoint_.Handle<SubmitAppRpc>(
      [this](const net::Envelope& env, const SubmitAppRpc& rpc) {
        if (alive_ && primary_) OnSubmitApp(env, rpc);
      });
  endpoint_.Handle<StopAppRpc>(
      [this](const net::Envelope& env, const StopAppRpc& rpc) {
        if (alive_ && primary_) OnStopApp(env, rpc);
      });
  endpoint_.Handle<RequestRpc>(
      [this](const net::Envelope& env, const RequestRpc& rpc) {
        if (alive_ && primary_) OnRequest(env, rpc);
      });
  endpoint_.Handle<ResyncRpc>(
      [this](const net::Envelope& env, const ResyncRpc& rpc) {
        if (alive_ && primary_) OnResync(env, rpc);
      });
  endpoint_.Handle<AgentHeartbeatRpc>(
      [this](const net::Envelope& env, const AgentHeartbeatRpc& rpc) {
        if (alive_ && primary_) OnHeartbeat(env, rpc);
      });
  endpoint_.Handle<BadMachineReportRpc>(
      [this](const net::Envelope& env, const BadMachineReportRpc& rpc) {
        if (alive_ && primary_) OnBadMachineReport(env, rpc);
      });
}

void FuxiMaster::set_observability(obs::Observability* obs) {
  obs_ = obs;
  if (obs == nullptr) {
    grant_units_counter_ = revoke_units_counter_ = nullptr;
    blacklist_adds_counter_ = machines_down_counter_ = nullptr;
    elections_counter_ = am_restarts_counter_ = nullptr;
    checkpoint_skips_counter_ = nullptr;
    apps_gauge_ = blacklist_gauge_ = request_backlog_gauge_ = nullptr;
    schedule_wall_us_ = nullptr;
    return;
  }
  obs::MetricsRegistry& m = obs->metrics;
  grant_units_counter_ = m.GetCounter("master.grant_units");
  revoke_units_counter_ = m.GetCounter("master.revoke_units");
  blacklist_adds_counter_ = m.GetCounter("master.blacklist_adds");
  machines_down_counter_ = m.GetCounter("master.machines_down");
  elections_counter_ = m.GetCounter("master.elections");
  am_restarts_counter_ = m.GetCounter("master.am_restarts");
  checkpoint_skips_counter_ =
      m.GetCounter("master.checkpoint_records_skipped");
  apps_gauge_ = m.GetGauge("master.apps");
  blacklist_gauge_ = m.GetGauge("master.blacklist_size");
  request_backlog_gauge_ = m.GetGauge("master.request_backlog");
  schedule_wall_us_ = m.GetHistogram("master.schedule_wall_us");
  // Real wall-clock measurements: legitimately differ between
  // byte-identical simulation runs, so determinism diffs filter on the
  // attribute instead of stripping rows by name.
  m.MarkRealtime("master.schedule_wall_us");
}

void FuxiMaster::Start() {
  network_->Register(self_, &endpoint_);
  TryBecomePrimary();
}

void FuxiMaster::Crash() {
  if (!alive_) return;
  bool was_primary = primary_;
  alive_ = false;
  primary_ = false;
  ++life_;
  network_->Unregister(self_);
  // All soft state is lost with the process (§4.3.1: it will be
  // re-collected from agents and application masters on failover).
  scheduler_.reset();
  apps_.clear();
  agents_.clear();
  blacklist_.clear();
  blacklist_votes_.clear();
  // Gauges mirror *the primary's* soft state; a crashing standby must
  // not zero what the live primary owns.
  if (was_primary) SyncStateGauges();
}

void FuxiMaster::Restart() {
  if (alive_) return;
  alive_ = true;
  ++life_;
  network_->Register(self_, &endpoint_);
  TryBecomePrimary();
}

void FuxiMaster::TryBecomePrimary() {
  if (!alive_ || primary_) return;
  Status acquired = locks_->TryAcquire(lock_name_, self_,
                                       options_.lock_lease);
  if (acquired.ok()) {
    BecomePrimary();
    return;
  }
  // Standby: watch for the primary's lease to lapse. The callback may
  // fire after this instance crashed, so guard with the life counter.
  uint64_t life = life_;
  locks_->WatchRelease(lock_name_, [this, life]() {
    if (alive_ && life == life_) TryBecomePrimary();
  });
}

void FuxiMaster::BecomePrimary() {
  primary_ = true;
  uint64_t previous_generation = 0;
  if (auto gen = checkpoint_->Get(GenerationKeyFor()); gen.ok()) {
    previous_generation = static_cast<uint64_t>(gen->as_int());
  }
  generation_ = previous_generation + 1;
  checkpoint_->Put(GenerationKeyFor(),
                   Json(static_cast<int64_t>(generation_)));
  FUXI_LOG(kInfo) << "FuxiMaster node " << self_.value()
                  << " became primary, generation " << generation_;
  if (elections_counter_ != nullptr) elections_counter_->Add();

  resource::SchedulerOptions scheduler_options = options_.scheduler;
  scheduler_options.starvation_age_after = options_.starvation_age_after;
  scheduler_ = std::make_unique<resource::Scheduler>(topology_,
                                                     scheduler_options);
  if (obs_ != nullptr) {
    scheduler_->set_metrics(&obs_->metrics);
    scheduler_->set_audit(&obs_->audit);
  }
  for (const FuxiMasterOptions::TenantNode& tenant : options_.tenants) {
    Status s = scheduler_->CreateTenantNode(tenant.path, tenant.guarantee,
                                            tenant.weight,
                                            tenant.preemption_budget);
    FUXI_CHECK(s.ok()) << s.ToString();
  }
  // Machines come online only when their agent reports in (with its
  // allocation table after a failover), so restored grants can be
  // installed before any new scheduling touches the machine.
  resource::SchedulingResult scratch;
  for (const cluster::Machine& machine : topology_->machines()) {
    scheduler_->SetMachineOffline(machine.id, &scratch);
  }
  RecoverHardState();
  SyncStateGauges();

  uint64_t life = life_;
  After(options_.lock_renew_every, [this, life] {
    if (alive_ && life == life_ && primary_) RenewLease();
  });
  After(options_.monitor_interval, [this, life] {
    if (alive_ && life == life_ && primary_) MonitorTick();
  });
  After(options_.rollup_interval, [this, life] {
    if (alive_ && life == life_ && primary_) RollupTick();
  });
  // Federated mode: announce the new primary to the shard directory
  // right away (the router is waiting out a failover) and then on the
  // periodic status cadence.
  if (!options_.directory_replicas.empty()) SendShardStatus();
}

void FuxiMaster::StepDown() {
  primary_ = false;
  scheduler_.reset();
  apps_.clear();
  agents_.clear();
  SyncStateGauges();
  TryBecomePrimary();
}

/// Level gauges mirror primary-only soft state; recompute them at the
/// state transitions (election, step-down, crash) where that state is
/// rebuilt or discarded wholesale, so the incremental updates in the
/// hot paths always start from a correct base.
void FuxiMaster::SyncStateGauges() {
  if (apps_gauge_ == nullptr) return;
  apps_gauge_->Set(static_cast<double>(apps_.size()));
  blacklist_gauge_->Set(static_cast<double>(blacklist_.size()));
  double backlog = 0;
  for (const auto& [app, record] : apps_) {
    backlog += static_cast<double>(record.request_receiver.buffered());
  }
  request_backlog_gauge_->Set(backlog);
}

void FuxiMaster::RenewLease() {
  Status s = locks_->Renew(lock_name_, self_, options_.lock_lease);
  if (!s.ok()) {
    FUXI_LOG(kWarning) << "FuxiMaster node " << self_.value()
                       << " lost the master lock: " << s.ToString();
    StepDown();
    return;
  }
  uint64_t life = life_;
  After(options_.lock_renew_every, [this, life] {
    if (alive_ && life == life_ && primary_) RenewLease();
  });
}

void FuxiMaster::RecoverHardState() {
  // Hard state (paper §4.3.1): only application configurations and the
  // cluster-level blacklist are checkpointed. Everything else is soft.
  checkpoint_records_skipped_ = 0;
  for (const std::string& key : checkpoint_->ListKeys(AppKeyPrefix())) {
    auto record_json = checkpoint_->Get(key);
    if (!record_json.ok()) {
      // Torn write: the process that crashed mid-Put left a partial
      // record. Losing one app's hard state must not take down the
      // whole recovery — skip it, count it, and let the client's
      // idempotent re-submit repair the record.
      FUXI_LOG(kWarning) << "skipping damaged checkpoint record " << key
                         << ": " << record_json.status().ToString();
      ++checkpoint_records_skipped_;
      if (checkpoint_skips_counter_ != nullptr) {
        checkpoint_skips_counter_->Add();
      }
      continue;
    }
    AppRecord record;
    record.app = AppId(record_json->GetInt("app"));
    // Legacy checkpoints wrote the flat group name under this key; a
    // one-segment tenant path is exactly that, so the key survives the
    // hierarchy refactor unchanged.
    record.tenant_path = record_json->GetString("quota_group");
    record.tenant_weight = record_json->GetNumber("tenant_weight", 1.0);
    if (const Json* desc = record_json->Find("description")) {
      record.description = *desc;
    }
    record.client = NodeId(record_json->GetInt("client", -1));
    record.am_started = record_json->GetBool("am_started");
    record.last_contact = Now();
    if (record.tenant_path.find('/') != std::string::npos) {
      // Auto-vivified tenant leaves are not cluster configuration:
      // recreate the leaf before re-binding the app to it.
      Status leaf = scheduler_->EnsureTenantLeaf(record.tenant_path,
                                                 record.tenant_weight);
      FUXI_CHECK(leaf.ok()) << leaf.ToString();
    }
    Status s = scheduler_->RegisterApp(record.app, record.tenant_path);
    FUXI_CHECK(s.ok()) << s.ToString();
    apps_.emplace(record.app, std::move(record));
  }
  if (auto blacklist = checkpoint_->Get(BlacklistKeyFor()); blacklist.ok()) {
    for (const Json& entry : blacklist->as_array()) {
      blacklist_.insert(MachineId(entry.as_int()));
    }
  }
}

void FuxiMaster::OnSubmitApp(const net::Envelope& env,
                             const SubmitAppRpc& rpc) {
  (void)env;
  SubmitAppReplyRpc reply;
  reply.app = rpc.app;
  if (apps_.count(rpc.app) > 0) {
    reply.accepted = true;  // duplicate submission is idempotent
    network_->Send(self_, rpc.client, reply);
    return;
  }
  if (rpc.tenant_path.find('/') != std::string::npos) {
    // Hierarchical tenant paths are auto-vivified as unbounded leaves
    // under the configured tree. Flat names keep the strict legacy
    // semantics: the group must have been configured up front.
    Status leaf = scheduler_->EnsureTenantLeaf(rpc.tenant_path, rpc.weight);
    if (!leaf.ok()) {
      reply.accepted = false;
      reply.error = leaf.ToString();
      network_->Send(self_, rpc.client, reply);
      return;
    }
  }
  Status registered = scheduler_->RegisterApp(rpc.app, rpc.tenant_path);
  if (!registered.ok()) {
    reply.accepted = false;
    reply.error = registered.ToString();
    network_->Send(self_, rpc.client, reply);
    return;
  }
  AppRecord record;
  record.app = rpc.app;
  record.tenant_path = rpc.tenant_path;
  record.tenant_weight = rpc.weight;
  record.description = rpc.description;
  record.client = rpc.client;
  record.last_contact = Now();

  // Hard-state checkpoint: happens only on submit/stop, by design. The
  // tenant path keeps the legacy "quota_group" key (a flat group name
  // is a one-segment path), so pre-refactor checkpoints recover as-is;
  // the weight is only written when it differs from the default.
  Json hard = Json::MakeObject();
  hard["app"] = Json(rpc.app.value());
  hard["quota_group"] = Json(rpc.tenant_path);
  if (rpc.weight != 1.0) hard["tenant_weight"] = Json(rpc.weight);
  hard["description"] = rpc.description;
  hard["client"] = Json(rpc.client.value());
  hard["am_started"] = Json(true);
  checkpoint_->Put(AppKeyFor(rpc.app), hard);

  // Find a FuxiAgent with capacity for the application master and ask
  // it to start one (paper §2.2 workflow).
  record.am_started = false;
  for (const auto& [machine, agent] : agents_) {
    if (!agent.online || blacklist_.count(machine) > 0) continue;
    network_->Send(self_, agent.node,
                   StartAppMasterRpc{rpc.app, rpc.description});
    record.am_started = true;
    break;
  }
  apps_.emplace(rpc.app, std::move(record));
  if (apps_gauge_ != nullptr) apps_gauge_->Add(1);
  reply.accepted = true;
  network_->Send(self_, rpc.client, reply);
}

void FuxiMaster::OnStopApp(const net::Envelope& env, const StopAppRpc& rpc) {
  (void)env;
  auto it = apps_.find(rpc.app);
  if (it == apps_.end()) return;
  resource::SchedulingResult result;
  Status s = scheduler_->UnregisterApp(rpc.app, &result);
  if (!s.ok()) FUXI_LOG(kWarning) << "stop app: " << s.ToString();
  if (it->second.am_node.valid()) {
    network_->Send(self_, it->second.am_node, StopAppRpc{rpc.app});
  }
  checkpoint_->Delete(AppKeyFor(rpc.app));
  if (apps_gauge_ != nullptr) {
    apps_gauge_->Add(-1);
    request_backlog_gauge_->Add(
        -static_cast<double>(it->second.request_receiver.buffered()));
  }
  apps_.erase(it);
  // Freed resources flowed to other apps' queues; tell them.
  Dispatch(result);
}

void FuxiMaster::OnRequest(const net::Envelope& env, const RequestRpc& rpc) {
  (void)env;
  AppRecord* record = FindApp(rpc.app);
  if (record == nullptr) {
    FUXI_LOG(kWarning) << "request from unknown app " << rpc.app.value();
    return;
  }
  record->am_node = rpc.reply_to;
  record->last_contact = Now();
  if (rpc.incarnation != record->am_incarnation) {
    // The application master restarted: both delta channels start over.
    record->am_incarnation = rpc.incarnation;
    if (request_backlog_gauge_ != nullptr) {
      request_backlog_gauge_->Add(
          -static_cast<double>(record->request_receiver.buffered()));
    }
    record->request_receiver =
        resource::DeltaReceiver<resource::RequestMessage>();
    record->grant_sender = resource::DeltaSender<resource::GrantMessage>();
  }
  // Delta-channel queue depth, tracked incrementally: Receive() may
  // buffer an out-of-order message or drain earlier buffered ones.
  size_t buffered_before = record->request_receiver.buffered();
  using Outcome = resource::DeltaReceiver<resource::RequestMessage>::Outcome;
  Outcome outcome = record->request_receiver.Receive(
      rpc.msg, [this, record](const resource::RequestMessage& msg,
                              bool is_full) {
        ApplyRequestMessage(record, msg, is_full);
      });
  if (request_backlog_gauge_ != nullptr) {
    request_backlog_gauge_->Add(
        static_cast<double>(record->request_receiver.buffered()) -
        static_cast<double>(buffered_before));
  }
  if (outcome == Outcome::kNeedResync) {
    ResyncRpc resync;
    resync.app = rpc.app;
    network_->Send(self_, record->am_node, resync);
  }
}

void FuxiMaster::OnResync(const net::Envelope& env, const ResyncRpc& rpc) {
  (void)env;
  AppRecord* record = FindApp(rpc.app);
  if (record == nullptr) return;
  if (rpc.reply_to.valid()) record->am_node = rpc.reply_to;
  record->last_contact = Now();
  if (rpc.incarnation != 0 && rpc.incarnation != record->am_incarnation) {
    record->am_incarnation = rpc.incarnation;
    if (request_backlog_gauge_ != nullptr) {
      request_backlog_gauge_->Add(
          -static_cast<double>(record->request_receiver.buffered()));
    }
    record->request_receiver =
        resource::DeltaReceiver<resource::RequestMessage>();
    record->grant_sender = resource::DeltaSender<resource::GrantMessage>();
  }
  SendFullGrantState(record);
}

void FuxiMaster::ApplyRequestMessage(AppRecord* record,
                                     const resource::RequestMessage& msg,
                                     bool is_full) {
  // The Figure 9 measurement: real wall-clock time of the full request
  // path. Measured when either the legacy sample vector or the registry
  // histogram wants it; the span additionally carries the cost so a
  // trace dump shows where scheduler time went.
  bool timing = time_decisions_ || schedule_wall_us_ != nullptr;
  std::chrono::steady_clock::time_point start;
  if (timing) start = std::chrono::steady_clock::now();
  uint64_t span = 0;
  if (obs_ != nullptr) {
    span = obs_->trace.BeginSpan("sched",
                                 is_full ? "ApplyFullState" : "ApplyRequest");
  }

  if (is_full) {
    ApplyFullState(record, msg);
  } else {
    resource::SchedulingResult result;
    if (!msg.delta.units.empty()) {
      resource::ResourceRequest request = msg.delta;
      request.app = record->app;  // never trust the inner app id blindly
      Status s = scheduler_->ApplyRequest(request, &result);
      if (!s.ok()) {
        FUXI_LOG(kWarning) << "request from app " << record->app.value()
                           << " rejected: " << s.ToString();
      }
    }
    for (const resource::ReleaseDelta& release : msg.releases) {
      Status s = scheduler_->Release(record->app, release.slot_id,
                                     release.machine, release.count,
                                     &result);
      if (!s.ok()) {
        // Benign race: the master may have reconciled this grant away
        // while the release was in flight; the full sync converges it.
        FUXI_LOG(kDebug) << "release from app " << record->app.value()
                         << " rejected: " << s.ToString();
      }
    }
    Dispatch(result);
  }

  double wall_us = -1;
  if (timing) {
    auto end = std::chrono::steady_clock::now();
    wall_us =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count() /
        1000.0;
    if (time_decisions_) decision_micros_.push_back(wall_us);
    if (schedule_wall_us_ != nullptr) schedule_wall_us_->Add(wall_us);
  }
  if (obs_ != nullptr) obs_->trace.EndSpan(span, wall_us);
}

void FuxiMaster::ApplyFullState(AppRecord* record,
                                const resource::RequestMessage& msg) {
  resource::SchedulingResult result;
  // Snapshot the grants that existed BEFORE this reconcile: the
  // application's held-grant view can only speak about those. Grants
  // created by the demand reconcile below are newer than the snapshot
  // the AM sent and must not be mistaken for lost releases.
  std::vector<resource::Scheduler::GrantEntry> grants_before =
      scheduler_->GrantsOf(record->app);
  // 1. Demand side: drive the scheduler's outstanding counts to the
  // absolute values the application asserts.
  const resource::LocalityTree& tree = scheduler_->locality_tree();
  resource::ResourceRequest reconcile;
  reconcile.app = record->app;
  std::map<uint32_t, int64_t> granted_per_slot;
  for (const resource::Scheduler::GrantEntry& grant : grants_before) {
    granted_per_slot[grant.slot_id] += grant.count;
  }
  std::set<uint32_t> mentioned;
  for (const resource::SlotAbsoluteState& slot : msg.full_slots) {
    mentioned.insert(slot.def.slot_id);
    const resource::PendingDemand* demand =
        tree.Find(resource::SlotKey{record->app, slot.def.slot_id});
    resource::UnitRequestDelta delta;
    delta.slot_id = slot.def.slot_id;
    delta.has_def = true;
    delta.def = slot.def;
    // Reconcile desired TOTALS (outstanding + granted): in-flight grant
    // deltas shift units between the halves on the two peers but leave
    // the total invariant.
    int64_t current_total = (demand ? demand->total_remaining : 0) +
                            granted_per_slot[slot.def.slot_id];
    delta.total_count_delta = slot.total_count - current_total;
    // Hints: absolute -> delta against the current view.
    std::map<std::pair<int, std::string>, int64_t> desired;
    for (const resource::LocalityHint& hint : slot.hints) {
      desired[{static_cast<int>(hint.level), hint.value}] += hint.count;
    }
    if (demand != nullptr) {
      for (const auto& [machine, count] : demand->machine_remaining) {
        std::string host = topology_->machine(machine).hostname;
        desired[{static_cast<int>(resource::LocalityLevel::kMachine),
                 host}] -= count;
      }
      for (const auto& [rack, count] : demand->rack_remaining) {
        desired[{static_cast<int>(resource::LocalityLevel::kRack),
                 topology_->rack(rack).name}] -= count;
      }
    }
    for (const auto& [level_value, count] : desired) {
      if (count == 0) continue;
      delta.hints.push_back(
          {static_cast<resource::LocalityLevel>(level_value.first),
           level_value.second, count});
    }
    delta.avoid_add = slot.avoid;
    // Planner metadata rides the full sync too (NoteDemand is
    // idempotent, so re-asserting it every reconcile is harmless).
    if (slot.plan.Any()) {
      delta.has_plan = true;
      delta.plan = slot.plan;
    }
    reconcile.units.push_back(std::move(delta));
  }
  // Slots the application no longer mentions: zero them out.
  for (const auto& [key, demand] : tree.DemandsOf(record->app)) {
    if (mentioned.count(key.slot_id) > 0) continue;
    if (demand->total_remaining == 0) continue;
    resource::UnitRequestDelta delta;
    delta.slot_id = key.slot_id;
    delta.total_count_delta = -demand->total_remaining;
    reconcile.units.push_back(std::move(delta));
  }
  if (!reconcile.units.empty()) {
    Status s = scheduler_->ApplyRequest(reconcile, &result);
    if (!s.ok()) {
      FUXI_LOG(kWarning) << "full-state reconcile failed for app "
                         << record->app.value() << ": " << s.ToString();
    }
  }
  // 2. Grant side: the application's held view vs ours. Grants we hold
  // that the app does not believe it has are treated as released (lost
  // release messages); the full grant state we send below snaps the
  // application to our authoritative view.
  std::map<std::pair<uint32_t, MachineId>, int64_t> held;
  for (const resource::GrantAbsolute& grant : msg.held_grants) {
    held[{grant.slot_id, grant.machine}] += grant.count;
  }
  std::map<std::pair<uint32_t, int64_t>, int64_t> still_suspected;
  for (const resource::Scheduler::GrantEntry& grant : grants_before) {
    int64_t app_view = 0;
    auto it = held.find({grant.slot_id, grant.machine});
    if (it != held.end()) app_view = it->second;
    int64_t excess = grant.count - app_view;
    if (excess <= 0) continue;
    auto key = std::make_pair(grant.slot_id, grant.machine.value());
    auto sit = record->suspected_lost.find(key);
    int64_t confirmed = sit == record->suspected_lost.end()
                            ? 0
                            : std::min(sit->second, excess);
    if (confirmed > 0) {
      // The AM failed to acknowledge these units across two consecutive
      // full syncs: the release message really was lost.
      Status s = scheduler_->Release(record->app, grant.slot_id,
                                     grant.machine, confirmed, &result,
                                     resource::RevocationReason::kReconcile);
      if (!s.ok()) {
        FUXI_LOG(kWarning) << "grant reconcile release failed: "
                           << s.ToString();
      }
      excess -= confirmed;
    }
    if (excess > 0) still_suspected[key] = excess;
  }
  record->suspected_lost = std::move(still_suspected);
  Dispatch(result);
  SendFullGrantState(record);
}

void FuxiMaster::Dispatch(const resource::SchedulingResult& result) {
  if (result.empty()) return;
  if (grant_units_counter_ != nullptr) {
    uint64_t granted = 0;
    for (const resource::Assignment& a : result.assignments) {
      granted += static_cast<uint64_t>(a.count);
    }
    if (granted > 0) grant_units_counter_->Add(granted);
    uint64_t revoked = 0;
    for (const resource::Revocation& r : result.revocations) {
      revoked += static_cast<uint64_t>(r.count);
    }
    if (revoked > 0) revoke_units_counter_->Add(revoked);
  }
  // Group grant changes per application and capacity changes per agent.
  std::map<AppId, resource::GrantMessage> per_app;
  std::map<MachineId, AgentCapacityRpc> per_machine;
  auto def_of = [this](AppId app, uint32_t slot) {
    return LookupDef(app, slot);
  };
  for (const resource::Assignment& a : result.assignments) {
    per_app[a.app].deltas.push_back(
        {a.slot_id, a.machine, a.count, resource::RevocationReason::kAppRelease});
    per_machine[a.machine].entries.push_back(
        {a.app, a.slot_id, def_of(a.app, a.slot_id), a.count});
  }
  for (const resource::Revocation& r : result.revocations) {
    // App-initiated releases are not echoed back to the application:
    // it already decremented its own view when it sent the release
    // (echoing would double-count). Agents always hear about them.
    if (r.reason != resource::RevocationReason::kAppRelease) {
      per_app[r.app].deltas.push_back(
          {r.slot_id, r.machine, -r.count, r.reason});
    }
    per_machine[r.machine].entries.push_back(
        {r.app, r.slot_id, def_of(r.app, r.slot_id), -r.count});
  }
  for (auto& [app, message] : per_app) {
    AppRecord* record = FindApp(app);
    if (record == nullptr || !record->am_node.valid()) continue;
    network_->Send(self_, record->am_node,
                   GrantRpc{record->grant_sender.Stamp(std::move(message))});
  }
  for (auto& [machine, rpc] : per_machine) {
    auto it = agents_.find(machine);
    if (it == agents_.end() || !it->second.online) continue;
    rpc.master_generation = generation_;
    rpc.seq = ++it->second.capacity_seq;
    network_->Send(self_, it->second.node, rpc);
  }
}

void FuxiMaster::SendFullCapacity(MachineId machine) {
  auto it = agents_.find(machine);
  if (it == agents_.end()) return;
  AgentCapacityRpc rpc;
  rpc.full = true;
  for (const auto& [key, count] :
       scheduler_->machine_state(machine).grants) {
    if (count <= 0) continue;
    rpc.entries.push_back(
        {key.app, key.slot_id, LookupDef(key.app, key.slot_id), count});
  }
  rpc.master_generation = generation_;
  rpc.seq = ++it->second.capacity_seq;
  network_->Send(self_, it->second.node, rpc);
}

void FuxiMaster::SendFullGrantState(AppRecord* record) {
  if (!record->am_node.valid()) return;
  resource::GrantMessage message;
  for (const resource::Scheduler::GrantEntry& grant :
       scheduler_->GrantsOf(record->app)) {
    message.full_grants.push_back(
        {grant.slot_id, grant.machine, grant.count});
  }
  network_->Send(
      self_, record->am_node,
      GrantRpc{record->grant_sender.StampFull(std::move(message))});
}

void FuxiMaster::OnHeartbeat(const net::Envelope& env,
                             const AgentHeartbeatRpc& rpc) {
  (void)env;
  bool known = agents_.count(rpc.machine) > 0;
  AgentRecord& agent = agents_[rpc.machine];
  agent.machine = rpc.machine;
  agent.node = rpc.agent_node;
  agent.last_heartbeat = Now();
  constexpr double kAlpha = 0.3;
  agent.health_ewma =
      known ? (1 - kAlpha) * agent.health_ewma + kAlpha * rpc.health_score
            : rpc.health_score;

  bool blacklisted = blacklist_.count(rpc.machine) > 0;
  bool scheduler_online =
      scheduler_->machine_state(rpc.machine).online;

  if (rpc.carries_allocations && !scheduler_online && !blacklisted) {
    // Failover / node-return path: restore the machine's allocations as
    // soft state, then open it up for scheduling (Figure 7).
    resource::SchedulingResult result;
    scheduler_->SetMachineOnline(rpc.machine, &result, /*run_pass=*/false);
    if (options_.failover_restore_grants) {
      for (const AgentAllocation& alloc : rpc.allocations) {
        if (apps_.count(alloc.app) == 0) continue;  // app no longer exists
        Status s = scheduler_->RestoreGrant(alloc.app, alloc.def,
                                            rpc.machine, alloc.count);
        if (!s.ok()) {
          FUXI_LOG(kWarning) << "failed to restore grant on machine "
                             << rpc.machine.value() << ": " << s.ToString();
        }
      }
    }
    scheduler_->RunSchedulePass(rpc.machine, &result);
    agent.online = true;
    Dispatch(result);
  } else if (rpc.carries_allocations) {
    // Periodic agent/master capacity reconcile: the agent volunteered
    // its allocation table; compare it against the scheduler's grants
    // for the machine and push a corrective full snapshot when the two
    // disagree (a capacity delta, stop request or blacklist revocation
    // was lost — without repair the divergence is permanent and the
    // orphaned processes leak). A snapshot in flight past a newer delta
    // is harmless: the sequence stamps let the agent drop the stale one.
    std::map<std::pair<AppId, uint32_t>, int64_t> reported;
    for (const AgentAllocation& alloc : rpc.allocations) {
      if (alloc.count > 0) reported[{alloc.app, alloc.slot_id}] = alloc.count;
    }
    std::map<std::pair<AppId, uint32_t>, int64_t> granted;
    for (const auto& [key, count] :
         scheduler_->machine_state(rpc.machine).grants) {
      if (count > 0) granted[{key.app, key.slot_id}] = count;
    }
    if (reported != granted) SendFullCapacity(rpc.machine);
  }

  AgentHeartbeatAckRpc ack;
  ack.master_generation = generation_;
  ack.need_allocations = !scheduler_->machine_state(rpc.machine).online &&
                         !blacklisted;
  network_->Send(self_, rpc.agent_node, ack);
}

void FuxiMaster::OnBadMachineReport(const net::Envelope& env,
                                    const BadMachineReportRpc& rpc) {
  (void)env;
  blacklist_votes_[rpc.machine].insert(rpc.app);
  // Vote evaluation itself is deferred to the roll-up tick (§3.4:
  // bad-node detection is heavy-but-not-urgent work).
}

void FuxiMaster::MonitorTick() {
  for (auto& [machine, agent] : agents_) {
    if (!agent.online) continue;
    if (Now() - agent.last_heartbeat > options_.heartbeat_timeout) {
      MarkMachineDown(machine, "heartbeat timeout");
    }
  }
  uint64_t life = life_;
  After(options_.monitor_interval, [this, life] {
    if (alive_ && life == life_ && primary_) MonitorTick();
  });
}

void FuxiMaster::RollupTick() {
  // Health-score based disabling (plugin scheme, §4.3.2).
  for (auto& [machine, agent] : agents_) {
    if (!agent.online) continue;
    if (agent.health_ewma < options_.health_disable_threshold) {
      if (agent.unhealthy_since < 0) agent.unhealthy_since = Now();
      if (Now() - agent.unhealthy_since >= options_.health_disable_after) {
        DisableMachine(machine, "sustained low health score");
      }
    } else {
      agent.unhealthy_since = -1;
    }
  }
  // Cross-job blacklist voting. When more machines are eligible than
  // the blacklist cap admits, the most-voted (= most widely observed
  // bad) machines win the scarce blacklist slots; ties break toward
  // the lower machine id for determinism.
  std::vector<std::pair<size_t, MachineId>> eligible;
  for (const auto& [machine, votes] : blacklist_votes_) {
    if (static_cast<int>(votes.size()) >= options_.blacklist_votes &&
        blacklist_.count(machine) == 0) {
      eligible.emplace_back(votes.size(), machine);
    }
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (const auto& [votes, machine] : eligible) {
    DisableMachine(machine, "blacklisted by " + std::to_string(votes) +
                                " apps");
  }
  // Starvation guard: long-waiting demands get an aging boost (heavy
  // non-urgent work, handled in the roll-up like quota adjustment).
  if (options_.starvation_age_after > 0) {
    scheduler_->AgeWaitingDemands(Now());
    for (resource::SchedulingResult& result :
         scheduler_->TakeAgedResults()) {
      Dispatch(result);
    }
  }
  // Planner pass (fuxi::planner, DESIGN.md §12): advance virtual time,
  // convert due reservations into grants, plan new reservations/gangs.
  // The planner is lazily built and stays null without planning-hinted
  // demands, so legacy traffic never enters this branch.
  if (scheduler_->planner_active()) {
    resource::SchedulingResult result;
    scheduler_->PlannerTick(Now(), &result);
    Dispatch(result);
  }
  // Application-master liveness: restart silent AMs.
  for (auto& [app, record] : apps_) {
    if (Now() - record.last_contact > options_.app_master_timeout) {
      for (const auto& [machine, agent] : agents_) {
        if (!agent.online || blacklist_.count(machine) > 0) continue;
        FUXI_LOG(kInfo) << "restarting application master for app "
                        << app.value();
        if (am_restarts_counter_ != nullptr) am_restarts_counter_->Add();
        network_->Send(self_, agent.node,
                       StartAppMasterRpc{app, record.description});
        record.last_contact = Now();  // give the new AM time to come up
        break;
      }
    }
  }
  uint64_t life = life_;
  After(options_.rollup_interval, [this, life] {
    if (alive_ && life == life_ && primary_) RollupTick();
  });
}

void FuxiMaster::SendShardStatus() {
  if (!primary_ || scheduler_ == nullptr) return;
  ShardStatusRpc rpc;
  rpc.shard = options_.shard;
  rpc.primary = self_;
  rpc.generation = generation_;
  // Only this shard's machines ever heartbeat here, so agents_ is the
  // shard membership; scan it rather than the global topology.
  cluster::ResourceVector total;
  for (const auto& [machine, agent] : agents_) {
    if (!agent.online) continue;
    ++rpc.machines_online;
    total += topology_->machine(machine).capacity;
  }
  rpc.total = total;
  rpc.granted = scheduler_->TotalGranted();
  for (NodeId replica : options_.directory_replicas) {
    network_->Send(self_, replica, rpc);
  }
  uint64_t life = life_;
  After(options_.shard_status_interval, [this, life] {
    if (alive_ && life == life_ && primary_) SendShardStatus();
  });
}

void FuxiMaster::AuditMachineEvent(MachineId machine,
                                   const std::string& note) {
  if (obs_ == nullptr) return;
  obs::DecisionRecord rec;
  rec.kind = obs::DecisionKind::kMachineEvent;
  rec.machine = machine.value();
  rec.note = note;
  obs_->audit.Commit(std::move(rec));
}

void FuxiMaster::MarkMachineDown(MachineId machine, const std::string& why) {
  auto it = agents_.find(machine);
  if (it != agents_.end()) it->second.online = false;
  if (machines_down_counter_ != nullptr) machines_down_counter_->Add();
  FUXI_LOG(kInfo) << "machine " << machine.value() << " down: " << why;
  AuditMachineEvent(machine, "down: " + why);
  resource::SchedulingResult result;
  scheduler_->SetMachineOffline(machine, &result);
  Dispatch(result);
}

void FuxiMaster::DisableMachine(MachineId machine, const std::string& why) {
  if (blacklist_.count(machine) > 0) return;
  int64_t machine_count = options_.shard_machine_count > 0
                              ? options_.shard_machine_count
                              : static_cast<int64_t>(
                                    topology_->machine_count());
  size_t cap = static_cast<size_t>(options_.blacklist_cap_fraction *
                                   static_cast<double>(machine_count));
  if (blacklist_.size() >= std::max<size_t>(cap, 1)) {
    FUXI_LOG(kWarning) << "blacklist cap reached; not disabling machine "
                       << machine.value();
    return;
  }
  FUXI_LOG(kInfo) << "disabling machine " << machine.value() << ": " << why;
  AuditMachineEvent(machine, "blacklist: " + why);
  blacklist_.insert(machine);
  if (blacklist_adds_counter_ != nullptr) {
    blacklist_adds_counter_->Add();
    blacklist_gauge_->Set(static_cast<double>(blacklist_.size()));
  }
  CheckpointBlacklist();
  MarkMachineDown(machine, why);
}

void FuxiMaster::CheckpointBlacklist() {
  Json list = Json::MakeArray();
  for (MachineId machine : blacklist_) list.Append(Json(machine.value()));
  checkpoint_->Put(BlacklistKeyFor(), list);
}

FuxiMaster::AppRecord* FuxiMaster::FindApp(AppId app) {
  auto it = apps_.find(app);
  return it == apps_.end() ? nullptr : &it->second;
}

resource::ScheduleUnitDef FuxiMaster::LookupDef(AppId app,
                                                uint32_t slot) const {
  const resource::PendingDemand* demand =
      scheduler_->locality_tree().Find(resource::SlotKey{app, slot});
  if (demand != nullptr) return demand->def;
  resource::ScheduleUnitDef def;
  def.slot_id = slot;
  return def;
}

std::vector<MachineId> FuxiMaster::Blacklisted() const {
  return std::vector<MachineId>(blacklist_.begin(), blacklist_.end());
}

}  // namespace fuxi::master
