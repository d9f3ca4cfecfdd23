#include "runtime/synthetic_app.h"

#include <algorithm>

#include "common/logging.h"

namespace fuxi::runtime {

namespace {
/// Worker-start plans time out and are retried after this long.
constexpr double kPlanRetryDelay = 0.5;
/// A plan nobody answered (agent died, or the message/reply was lost)
/// is garbage-collected and the launch retried after this long.
constexpr double kPlanTimeout = 10.0;
}  // namespace

SyntheticApp::SyntheticApp(SimCluster* cluster, AppId app,
                           std::vector<SyntheticStage> stages,
                           uint64_t seed)
    : cluster_(cluster),
      app_(app),
      node_(cluster->AllocateNodeId()),
      rng_(seed) {
  for (SyntheticStage& stage : stages) {
    StageState state;
    state.config = stage;
    Json plan = Json::MakeObject();
    plan["package"] = Json("pangu://packages/synthetic_worker.tar.gz");
    plan["slot"] = Json(static_cast<int64_t>(stage.slot_id));
    state.worker_plan = std::make_shared<const Json>(std::move(plan));
    state.remaining_instances = stage.instances;
    stages_.push_back(std::move(state));
  }
  endpoint_.Handle<master::WorkerStartedRpc>(
      [this](const net::Envelope&, const master::WorkerStartedRpc& rpc) {
        if (running_) OnWorkerStarted(rpc);
      });
  endpoint_.Handle<master::WorkerCrashedRpc>(
      [this](const net::Envelope&, const master::WorkerCrashedRpc& rpc) {
        if (running_) OnWorkerCrashed(rpc);
      });
  endpoint_.Handle<master::AdoptQueryRpc>(
      [this](const net::Envelope&, const master::AdoptQueryRpc& rpc) {
        if (running_) OnAdoptQuery(rpc);
      });
  endpoint_.Handle<master::StopAppRpc>(
      [this](const net::Envelope&, const master::StopAppRpc&) {
        // Master-initiated teardown; nothing else to do in the
        // synthetic app (workers are reclaimed by the agents).
        running_ = false;
      });
}

SyntheticApp::~SyntheticApp() {
  if (running_) {
    cluster_->network().Unregister(node_);
  }
}

void SyntheticApp::StartMaster() {
  FUXI_CHECK(!running_);
  running_ = true;
  ++life_;
  if (stats_.am_started_at < 0) stats_.am_started_at = cluster_->sim().Now();
  cluster_->network().Register(node_, &endpoint_);
  client_ = std::make_unique<master::ResourceClient>(
      &cluster_->sim(), &cluster_->network(), &cluster_->locks(), node_,
      app_, client_options_, life_);
  client_->set_grant_callback(
      [this](uint32_t slot, MachineId machine, int64_t delta,
             resource::RevocationReason reason) {
        OnGrantChange(slot, machine, delta, reason);
      });
  client_->Start(&endpoint_);
  for (StageState& stage : stages_) {
    if (stage.config.depends_on < 0) LaunchStage(&stage);
  }
}

void SyntheticApp::CrashMaster() {
  if (!running_) return;
  running_ = false;
  ++life_;
  client_->Stop();
  client_.reset();
  cluster_->network().Unregister(node_);
  // Worker records and their execution timers survive: the processes
  // are real and keep computing while the master is away (§4.3.1 —
  // "all the workers are still running the instances without
  // interruption"). In-flight plans are lost with the master.
  for (StageState& stage : stages_) stage.pending_plans.clear();
}

void SyntheticApp::RestartMaster() {
  FUXI_CHECK(!running_);
  running_ = true;
  ++life_;
  if (stats_.am_started_at < 0) stats_.am_started_at = cluster_->sim().Now();
  cluster_->network().Register(node_, &endpoint_);
  client_ = std::make_unique<master::ResourceClient>(
      &cluster_->sim(), &cluster_->network(), &cluster_->locks(), node_,
      app_, client_options_, life_);
  client_->set_grant_callback(
      [this](uint32_t slot, MachineId machine, int64_t delta,
             resource::RevocationReason reason) {
        OnGrantChange(slot, machine, delta, reason);
      });
  // Failover: recover the grant snapshot first, then re-declare demand
  // on top of it (our instance progress was never lost — the snapshot
  // of instance status lives in this object, standing in for the
  // JobMaster's light-weight checkpoint).
  client_->StartRecovering(&endpoint_, [this] {
    for (StageState& stage : stages_) {
      if (!stage.launched || stage.complete) continue;
      client_->DefineUnit(MakeDefFor(stage));
      if (stage.config.plan.Any()) {
        client_->SetPlan(stage.config.slot_id, stage.config.plan);
      }
      int64_t granted = client_->granted_total(stage.config.slot_id);
      int64_t wanted = std::min<int64_t>(
          stage.config.workers,
          stage.remaining_instances + stage.inflight);
      client_->SetDesired(stage.config.slot_id,
                          std::max(granted, wanted));
      // Idle grants may exist on machines where our workers died with
      // the old master's plans; restart workers where needed.
      for (const auto& [machine, count] :
           client_->grants_by_machine(stage.config.slot_id)) {
        (void)count;
        TryStartWorkers(&stage, machine);
      }
    }
    // Adopted workers that finished their instance while we were away
    // sit idle; hand them the next instance (the paper's "collect the
    // status from TaskWorker, recover the inner scheduling results").
    std::vector<WorkerId> idle;
    for (const auto& [id, record] : workers_) {
      if (!record.busy) idle.push_back(id);
    }
    for (WorkerId id : idle) {
      auto it = workers_.find(id);
      if (it != workers_.end() && !it->second.busy) {
        AssignWork(&it->second);
      }
    }
  });
}

resource::ScheduleUnitDef SyntheticApp::MakeDefFor(
    const StageState& stage) const {
  resource::ScheduleUnitDef def;
  def.slot_id = stage.config.slot_id;
  def.priority = stage.config.priority;
  def.resources = stage.config.unit;
  return def;
}

void SyntheticApp::LaunchStage(StageState* stage) {
  if (stage->launched) return;
  stage->launched = true;
  if (stage->config.instances == 0) {
    stage->complete = true;
    CheckStageCompletion(stage);
    return;
  }
  client_->DefineUnit(MakeDefFor(*stage));
  if (stage->config.plan.Any()) {
    client_->SetPlan(stage->config.slot_id, stage->config.plan);
  }
  int64_t wanted =
      std::min<int64_t>(stage->config.workers, stage->config.instances);
  client_->SetDesired(stage->config.slot_id, wanted);
}

void SyntheticApp::OnGrantChange(uint32_t slot, MachineId machine,
                                 int64_t delta,
                                 resource::RevocationReason reason) {
  StageState* stage = FindStage(slot);
  if (stage == nullptr) return;
  if (delta > 0) {
    TryStartWorkers(stage, machine);
    return;
  }
  // Revocation: |delta| units on this machine are gone. Drop worker
  // records there (the processes are killed by the agent or died with
  // the machine) and requeue their in-flight instances.
  (void)reason;
  int64_t to_drop = -delta;
  std::vector<WorkerId> victims;
  for (auto& [id, record] : workers_) {
    if (to_drop == 0) break;
    if (record.machine == machine && record.slot_id == slot) {
      victims.push_back(id);
      --to_drop;
    }
  }
  for (WorkerId id : victims) {
    auto it = workers_.find(id);
    if (it == workers_.end()) continue;
    if (it->second.busy) {
      it->second.work_timer.Cancel();
      stage->remaining_instances += 1;
      stage->inflight -= 1;
    }
    workers_.erase(it);
  }
}

void SyntheticApp::TryStartWorkers(StageState* stage, MachineId machine) {
  int64_t granted = client_->granted(stage->config.slot_id, machine);
  int64_t running = 0;
  for (const auto& [id, record] : workers_) {
    if (record.machine == machine &&
        record.slot_id == stage->config.slot_id) {
      ++running;
    }
  }
  int64_t pending = 0;
  for (const auto& [plan_id, plan] : stage->pending_plans) {
    if (plan.machine == machine) ++pending;
  }
  while (running + pending < granted) {
    master::StartWorkerRpc rpc;
    rpc.app = app_;
    rpc.slot_id = stage->config.slot_id;
    rpc.am_node = node_;
    rpc.plan_id = next_plan_id_++;
    rpc.plan = stage->worker_plan;
    stage->pending_plans.emplace(
        rpc.plan_id, PendingPlan{machine, cluster_->sim().Now()});
    // Plans are not fire-and-forget: if the StartWorkerRpc or its reply
    // is lost the pending entry would block this machine's launch slot
    // forever. Time the plan out and retry while the grant stands.
    uint64_t plan_id = rpc.plan_id;
    uint64_t life = life_;
    cluster_->sim().Schedule(kPlanTimeout,
                             [this, life, plan_id, stage, machine] {
                               if (!running_ || life != life_) return;
                               auto it = stage->pending_plans.find(plan_id);
                               if (it == stage->pending_plans.end()) return;
                               stage->pending_plans.erase(it);
                               TryStartWorkers(stage, machine);
                             });
    cluster_->network().Send(node_, cluster_->agent(machine)->node(), rpc);
    ++pending;
  }
}

void SyntheticApp::OnWorkerStarted(const master::WorkerStartedRpc& rpc) {
  StageState* owning_stage = nullptr;
  double sent_at = 0;
  for (StageState& stage : stages_) {
    auto it = stage.pending_plans.find(rpc.plan_id);
    if (it != stage.pending_plans.end()) {
      owning_stage = &stage;
      sent_at = it->second.sent_at;
      stage.pending_plans.erase(it);
      break;
    }
  }
  if (owning_stage == nullptr) {
    // Unknown plan (e.g. reply to a pre-crash plan): stop the stray.
    if (rpc.ok) {
      cluster_->network().Send(node_,
                               cluster_->agent(rpc.machine)->node(),
                               master::StopWorkerRpc{rpc.worker});
    }
    return;
  }
  if (!rpc.ok) {
    // The agent may already run workers of ours it reported in the
    // refusal — a started worker whose reply was lost. Adopt them so
    // the retry loop cannot spin against a phantom capacity deficit.
    for (WorkerId id : rpc.running) {
      if (workers_.count(id) > 0) continue;
      WorkerRecord orphan;
      orphan.worker = id;
      orphan.machine = rpc.machine;
      orphan.slot_id = owning_stage->config.slot_id;
      auto [oit, inserted] = workers_.emplace(id, std::move(orphan));
      if (inserted) AssignWork(&oit->second);
    }
    // Capacity message may still be in flight to the agent; retry while
    // the grant stands.
    uint64_t life = life_;
    StageState* stage = owning_stage;
    MachineId machine = rpc.machine;
    cluster_->sim().Schedule(kPlanRetryDelay, [this, life, stage, machine] {
      if (running_ && life == life_) TryStartWorkers(stage, machine);
    });
    return;
  }
  WorkerRecord record;
  record.worker = rpc.worker;
  record.machine = rpc.machine;
  record.slot_id = owning_stage->config.slot_id;
  auto [it, inserted] = workers_.emplace(rpc.worker, std::move(record));
  FUXI_CHECK(inserted);
  ++stats_.workers_started;
  stats_.worker_start_latency_sum += cluster_->sim().Now() - sent_at;
  ++stats_.worker_start_count;
  AssignWork(&it->second);
}

void SyntheticApp::AssignWork(WorkerRecord* worker) {
  StageState* stage = FindStage(worker->slot_id);
  FUXI_CHECK(stage != nullptr);
  if (stage->remaining_instances > 0) {
    stage->remaining_instances -= 1;
    stage->inflight += 1;
    worker->busy = true;
    double duration = stage->config.instance_duration *
                      (0.75 + 0.5 * rng_.NextDouble());
    WorkerId id = worker->worker;
    uint64_t life = life_;
    worker->work_timer =
        cluster_->sim().Schedule(duration, [this, id, life] {
          // The worker finishes its instance even if the master is away
          // (life guard only protects against double-restarts races on
          // the same worker id).
          (void)life;
          FinishInstance(id);
        });
    return;
  }
  // No work left in this stage: return the container (one unit on the
  // worker's machine) and stop the worker.
  worker->busy = false;
  MachineId machine = worker->machine;
  uint32_t slot = worker->slot_id;
  WorkerId id = worker->worker;
  workers_.erase(id);
  if (running_ && client_ != nullptr) {
    cluster_->network().Send(node_, cluster_->agent(machine)->node(),
                             master::StopWorkerRpc{id});
    client_->Release(slot, machine, 1);
  }
  CheckStageCompletion(stage);
}

void SyntheticApp::FinishInstance(WorkerId worker_id) {
  auto it = workers_.find(worker_id);
  if (it == workers_.end()) return;
  StageState* stage = FindStage(it->second.slot_id);
  FUXI_CHECK(stage != nullptr);
  stage->inflight -= 1;
  stage->done += 1;
  ++stats_.instances_done;
  it->second.busy = false;
  if (running_) {
    AssignWork(&it->second);
  }
  // If the master is down, the worker simply idles with its result;
  // the restarted master resumes assignment from its recovered state.
  CheckStageCompletion(stage);
}

void SyntheticApp::CheckStageCompletion(StageState* stage) {
  if (!stage->complete && stage->done >= stage->config.instances) {
    stage->complete = true;
  }
  if (!stage->complete) return;
  // Unblock dependent stages.
  if (running_) {
    for (StageState& next : stages_) {
      if (!next.launched && next.config.depends_on >= 0 &&
          static_cast<uint32_t>(next.config.depends_on) ==
              stage->config.slot_id) {
        LaunchStage(&next);
      }
    }
  }
  for (const StageState& s : stages_) {
    if (!s.complete) return;
  }
  if (!finished_) {
    finished_ = true;
    stats_.finished_at = cluster_->sim().Now();
    if (done_callback_) done_callback_(this);
  }
}

void SyntheticApp::OnWorkerCrashed(const master::WorkerCrashedRpc& rpc) {
  auto it = workers_.find(rpc.worker);
  if (it != workers_.end()) {
    StageState* stage = FindStage(it->second.slot_id);
    if (it->second.busy && stage != nullptr) {
      it->second.work_timer.Cancel();
      stage->remaining_instances += 1;
      stage->inflight -= 1;
    }
    MachineId machine = it->second.machine;
    uint32_t slot = it->second.slot_id;
    workers_.erase(it);
    if (rpc.restarted) {
      // The agent relaunched the process in place under the same grant.
      WorkerRecord record;
      record.worker = rpc.replacement;
      record.machine = machine;
      record.slot_id = slot;
      auto [new_it, inserted] =
          workers_.emplace(rpc.replacement, std::move(record));
      FUXI_CHECK(inserted);
      AssignWork(&new_it->second);
    } else if (StageState* s = FindStage(slot)) {
      // Killed for capacity or restart budget exhausted; if the grant
      // still stands we can start a fresh worker.
      TryStartWorkers(s, machine);
    }
  }
}

void SyntheticApp::OnAdoptQuery(const master::AdoptQueryRpc& rpc) {
  master::AdoptReplyRpc reply;
  reply.app = app_;
  reply.machine = rpc.machine;
  for (WorkerId id : rpc.workers) {
    if (workers_.count(id) > 0) reply.keep.push_back(id);
  }
  cluster_->network().Send(node_, rpc.agent_node, reply);
}

SyntheticApp::StageState* SyntheticApp::FindStage(uint32_t slot_id) {
  for (StageState& stage : stages_) {
    if (stage.config.slot_id == slot_id) return &stage;
  }
  return nullptr;
}

int64_t SyntheticApp::running_workers() const {
  return static_cast<int64_t>(workers_.size());
}

}  // namespace fuxi::runtime
