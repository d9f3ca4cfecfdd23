#include "job/job_master.h"

#include <algorithm>

#include "common/logging.h"
#include "dfs/file_system.h"
#include "master/messages.h"

namespace fuxi::job {

namespace {
constexpr double kPlanRetryDelay = 0.5;
constexpr double kPlanTimeout = 10.0;
}  // namespace

JobMaster::JobMaster(runtime::SimCluster* cluster, AppId app,
                     JobDescription desc, uint64_t seed,
                     JobMasterOptions options)
    : cluster_(cluster),
      app_(app),
      desc_(std::move(desc)),
      node_(cluster->AllocateNodeId()),
      rng_(seed),
      options_(options) {
  Status valid = desc_.Validate();
  FUXI_CHECK(valid.ok()) << valid.ToString();
  for (size_t i = 0; i < desc_.tasks.size(); ++i) {
    tasks_.push_back(std::make_unique<TaskMaster>(
        desc_.tasks[i], static_cast<uint32_t>(i)));
    tasks_.back()->options = options_;
    Json plan = Json::MakeObject();
    plan["fuxi_job"] = Json(app_.value());
    plan["task"] = Json(desc_.tasks[i].name);
    plan["package"] = Json("pangu://packages/" + desc_.name + ".tar.gz");
    worker_plans_.push_back(std::make_shared<const Json>(std::move(plan)));
  }
  endpoint_.Handle<master::WorkerStartedRpc>(
      [this](const net::Envelope&, const master::WorkerStartedRpc& rpc) {
        if (running_) OnWorkerStarted(rpc);
      });
  endpoint_.Handle<WorkerReadyRpc>(
      [this](const net::Envelope&, const WorkerReadyRpc& rpc) {
        if (running_) OnWorkerReady(rpc);
      });
  endpoint_.Handle<InstanceDoneRpc>(
      [this](const net::Envelope&, const InstanceDoneRpc& rpc) {
        if (running_) OnInstanceDone(rpc);
      });
  endpoint_.Handle<WorkerStatusReportRpc>(
      [this](const net::Envelope&, const WorkerStatusReportRpc& rpc) {
        if (running_) OnWorkerStatus(rpc);
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
        running_ = false;
      });
}

JobMaster::~JobMaster() {
  if (running_) cluster_->network().Unregister(node_);
}

std::string JobMaster::SnapshotKey() const {
  return "fuxi/jobsnap/" + std::to_string(app_.value());
}

void JobMaster::StartMaster() {
  FUXI_CHECK(!running_);
  running_ = true;
  ++life_;
  if (stats_.am_started_at < 0) {
    stats_.am_started_at = cluster_->sim().Now();
  }
  cluster_->network().Register(node_, &endpoint_);
  client_ = std::make_unique<master::ResourceClient>(
      &cluster_->sim(), &cluster_->network(), &cluster_->locks(), node_,
      app_, master::ResourceClientOptions(), life_);
  client_->set_grant_callback(
      [this](uint32_t slot, MachineId machine, int64_t delta,
             resource::RevocationReason reason) {
        OnGrantChange(slot, machine, delta, reason);
      });
  client_->Start(&endpoint_);
  LaunchRunnableTasks();
  uint64_t life = life_;
  cluster_->sim().Schedule(options_.backup_check_interval, [this, life] {
    if (running_ && life == life_) BackupTick();
  });
}

void JobMaster::CrashMaster() {
  if (!running_) return;
  running_ = false;
  ++life_;
  client_->Stop();
  client_.reset();
  cluster_->network().Unregister(node_);
  pending_plans_.clear();
  stopped_workers_.clear();
  // In-memory scheduling state dies with the process; the instance
  // snapshot in the checkpoint store plus worker status reports will
  // rebuild it (§4.3.1 JobMaster failover).
}

void JobMaster::RestartMaster() {
  FUXI_CHECK(!running_);
  running_ = true;
  ++life_;
  cluster_->network().Register(node_, &endpoint_);
  RestoreFromSnapshot();
  client_ = std::make_unique<master::ResourceClient>(
      &cluster_->sim(), &cluster_->network(), &cluster_->locks(), node_,
      app_, master::ResourceClientOptions(), life_);
  client_->set_grant_callback(
      [this](uint32_t slot, MachineId machine, int64_t delta,
             resource::RevocationReason reason) {
        OnGrantChange(slot, machine, delta, reason);
      });
  client_->StartRecovering(&endpoint_, [this] {
    // Grant snapshot recovered; re-declare demand on top of it and
    // restart/reattach workers. Status reports reattach the running
    // ones over the next report interval.
    for (auto& task : tasks_) {
      task->launched = false;
    }
    LaunchRunnableTasks();
  });
  uint64_t life = life_;
  cluster_->sim().Schedule(options_.backup_check_interval, [this, life] {
    if (running_ && life == life_) BackupTick();
  });
}

bool JobMaster::TaskIsRunnable(const TaskMaster& task) const {
  for (const std::string& upstream : desc_.UpstreamOf(task.config().name)) {
    int index = desc_.FindTask(upstream);
    FUXI_CHECK_GE(index, 0);
    if (!tasks_[static_cast<size_t>(index)]->complete()) return false;
  }
  return true;
}

void JobMaster::LaunchRunnableTasks() {
  for (auto& task : tasks_) {
    if (task->launched || task->complete()) continue;
    if (TaskIsRunnable(*task)) LaunchTask(task.get());
  }
  // A job whose tasks are all already complete (restored snapshot).
  OnTaskProgress(nullptr);
}

void JobMaster::LaunchTask(TaskMaster* task) {
  task->launched = true;
  const TaskConfig& config = task->config();
  resource::ScheduleUnitDef def;
  def.slot_id = task->slot_id();
  def.priority = config.priority;
  def.resources = config.unit;
  client_->DefineUnit(def);
  // Planner metadata (fuxi::planner): a gang task's worker set is
  // requested all-or-nothing; a lifetime estimate (explicit, or derived
  // from the instance plan for gangs) makes the task backfill-eligible.
  if (config.gang || config.estimated_seconds > 0) {
    resource::PlanningHints plan;
    plan.estimated_seconds = config.estimated_seconds;
    if (config.gang) {
      if (plan.estimated_seconds <= 0 && config.max_workers > 0) {
        int64_t waves =
            (config.instances + config.max_workers - 1) / config.max_workers;
        plan.estimated_seconds =
            config.instance_seconds * static_cast<double>(waves);
      }
      // One gang per task: the single member is this slot's demand, so
      // the whole worker set places atomically.
      plan.gang_id = static_cast<uint64_t>(app_.value()) * 1000 +
                     task->slot_id() + 1;
      plan.gang_size = 1;
    }
    client_->SetPlan(task->slot_id(), plan);
  }
  ComputeLocality(task);
  int64_t remaining = config.instances - task->done_count();
  int64_t wanted = std::min<int64_t>(config.max_workers, remaining);
  client_->SetDesired(
      task->slot_id(),
      std::max<int64_t>(wanted, client_->granted_total(task->slot_id())));
  // Containers we already hold (failover recovery) may sit idle on
  // machines with no registered worker yet; kick the launch path.
  for (const auto& [machine, count] :
       client_->grants_by_machine(task->slot_id())) {
    (void)count;
    TryStartWorkers(task, machine);
  }
}

void JobMaster::ComputeLocality(TaskMaster* task) {
  const TaskConfig& config = task->config();
  if (!options_.use_locality) return;
  if (config.input_file.empty()) return;
  auto file = cluster_->dfs().Stat(config.input_file);
  if (!file.ok() || (*file)->blocks.empty()) return;
  const std::vector<dfs::Block>& blocks = (*file)->blocks;
  std::map<MachineId, int64_t> hint_counts;
  for (int64_t i = 0; i < config.instances; ++i) {
    const dfs::Block& block =
        blocks[static_cast<size_t>(i) % blocks.size()];
    task->SetInstanceLocality(i, block.replicas);
    for (MachineId replica : block.replicas) hint_counts[replica] += 1;
  }
  // Publish the strongest preferences (Figure 4 Locality_hints). The
  // master decrements them as it grants on those machines.
  std::vector<std::pair<MachineId, int64_t>> ranked(hint_counts.begin(),
                                                    hint_counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  constexpr size_t kMaxHints = 10;
  for (size_t i = 0; i < ranked.size() && i < kMaxHints; ++i) {
    int64_t count =
        std::min<int64_t>(ranked[i].second, config.max_workers);
    client_->SetLocalityHint(task->slot_id(),
                             resource::LocalityLevel::kMachine,
                             cluster_->topology()
                                 .machine(ranked[i].first)
                                 .hostname,
                             count);
  }
}

void JobMaster::OnGrantChange(uint32_t slot, MachineId machine,
                              int64_t delta,
                              resource::RevocationReason reason) {
  (void)reason;
  TaskMaster* task = FindTaskBySlot(slot);
  if (task == nullptr) return;
  FUXI_LOG(kDebug) << "grantchange slot " << slot << " machine "
                   << machine.value() << " delta " << delta << " reason "
                   << resource::RevocationReasonName(reason);
  if (delta > 0) {
    TryStartWorkers(task, machine);
    return;
  }
  // Revocation: drop workers on this machine, requeueing their work.
  int64_t to_drop = -delta;
  std::vector<WorkerId> victims;
  for (const auto& [id, info] : task->workers()) {
    if (to_drop == 0) break;
    if (info.machine == machine) {
      victims.push_back(id);
      --to_drop;
    }
  }
  for (WorkerId id : victims) {
    auto removed = task->RemoveWorker(id, /*count_as_failure=*/false);
    (void)removed;
    stopped_workers_.insert(id);
  }
  DispatchIdle(task);
}

void JobMaster::TryStartWorkers(TaskMaster* task, MachineId machine) {
  int64_t granted = client_->granted(task->slot_id(), machine);
  int64_t live = 0;
  for (const auto& [id, info] : task->workers()) {
    if (info.machine == machine) ++live;
  }
  for (const auto& [plan, info] : pending_plans_) {
    if (info.slot == task->slot_id() && info.machine == machine) ++live;
  }
  while (live < granted) {
    master::StartWorkerRpc rpc;
    rpc.app = app_;
    rpc.slot_id = task->slot_id();
    rpc.am_node = node_;
    rpc.plan_id = next_plan_id_++;
    rpc.plan = worker_plans_[task->slot_id()];
    pending_plans_.emplace(
        rpc.plan_id,
        PendingPlan{task->slot_id(), machine, cluster_->sim().Now()});
    FUXI_LOG(kDebug) << "plan " << rpc.plan_id << " slot "
                     << task->slot_id() << " machine " << machine.value()
                     << " granted=" << granted << " live=" << live;
    cluster_->network().Send(node_, cluster_->agent(machine)->node(), rpc);
    ++live;
  }
}

void JobMaster::OnWorkerStarted(const master::WorkerStartedRpc& rpc) {
  auto it = pending_plans_.find(rpc.plan_id);
  if (rpc.ok) {
    ++stats_.workers_started;
    if (it != pending_plans_.end()) {
      stats_.worker_start_latency_sum +=
          cluster_->sim().Now() - it->second.sent_at;
      ++stats_.worker_start_count;
    }
    // The worker's own WorkerReadyRpc finishes the handshake; the plan
    // entry is cleared there (or by timeout).
    return;
  }
  if (it != pending_plans_.end()) {
    uint32_t slot = it->second.slot;
    MachineId machine = it->second.machine;
    pending_plans_.erase(it);
    uint64_t life = life_;
    cluster_->sim().Schedule(kPlanRetryDelay, [this, life, slot, machine] {
      if (!running_ || life != life_) return;
      if (TaskMaster* task = FindTaskBySlot(slot)) {
        TryStartWorkers(task, machine);
      }
    });
  }
}

void JobMaster::OnWorkerReady(const WorkerReadyRpc& rpc) {
  TaskMaster* task = FindTask(rpc.task);
  if (task == nullptr) return;
  if (stopped_workers_.count(rpc.worker) > 0) return;  // zombie
  if (task->HasWorker(rpc.worker)) return;  // duplicate announcement
  // Clear the oldest matching pending plan (the normal handshake) —
  // agent-restarted replacements arrive with no plan, which is fine.
  for (auto it = pending_plans_.begin(); it != pending_plans_.end(); ++it) {
    if (it->second.slot == task->slot_id() &&
        it->second.machine == rpc.machine) {
      pending_plans_.erase(it);
      break;
    }
  }
  task->AddWorker(rpc.worker, rpc.machine, rpc.worker_node,
                  cluster_->sim().Now());
  DispatchTo(task, rpc.worker);
}

void JobMaster::DispatchTo(TaskMaster* task, WorkerId worker) {
  auto wit = task->workers().find(worker);
  if (wit == task->workers().end() || wit->second.instance >= 0) return;
  const TaskMaster::WorkerInfo& info = wit->second;
  int64_t instance = task->PickInstanceFor(info);
  if (instance < 0) {
    // Nothing dispatchable. Keep the container idle while backups may
    // still need it; otherwise return it (Fuxi reuses containers while
    // useful, and releases promptly when not — §3.2.3). Containers on
    // task-blacklisted machines are always returned.
    bool keep_for_backups = task->config().backup_normal_seconds > 0 &&
                            !task->complete() &&
                            task->running_count() > 0 &&
                            task->blacklist().count(info.machine) == 0;
    if (!keep_for_backups) ReleaseWorker(task, worker);
    return;
  }
  ExecuteInstanceRpc exec;
  exec.instance = instance;
  exec.is_backup = false;
  exec.base_seconds = task->config().instance_seconds;
  exec.bytes = task->config().input_bytes_per_instance;
  exec.locality_factor =
      task->LocalityFactor(instance, info.machine, cluster_->topology());
  task->MarkRunning(instance, worker, cluster_->sim().Now(), false);
  cluster_->network().Send(node_, info.node, exec);
  MarkSnapshotDirty();
}

void JobMaster::DispatchIdle(TaskMaster* task) {
  for (WorkerId worker : task->IdleWorkers()) {
    DispatchTo(task, worker);
  }
}

void JobMaster::ReleaseWorker(TaskMaster* task, WorkerId worker) {
  auto removed = task->RemoveWorker(worker, /*count_as_failure=*/false);
  if (!removed.ok()) return;
  FUXI_LOG(kDebug) << "release worker " << worker.value() << " slot "
                   << task->slot_id() << " machine "
                   << removed->machine.value();
  stopped_workers_.insert(worker);
  cluster_->network().Send(node_,
                           cluster_->agent(removed->machine)->node(),
                           master::StopWorkerRpc{worker});
  client_->Release(task->slot_id(), removed->machine, 1);
}

void JobMaster::OnInstanceDone(const InstanceDoneRpc& rpc) {
  TaskMaster* task = FindTask(rpc.task);
  if (task == nullptr) return;
  task->TouchWorker(rpc.worker, cluster_->sim().Now());
  // Instance running overhead: our view of the instance's lifetime vs
  // the worker's measured execution time (Table 2).
  const TaskMaster::InstanceState& pre_state = task->instance(rpc.instance);
  if (pre_state.state == TaskMaster::InstanceStateKind::kRunning) {
    double am_elapsed = cluster_->sim().Now() - pre_state.started_at;
    stats_.instance_overhead_sum += am_elapsed - rpc.elapsed;
    ++stats_.instance_overhead_count;
  }
  TaskMaster::DoneResult done =
      task->MarkDone(rpc.instance, rpc.worker, cluster_->sim().Now());
  if (done.first_completion) {
    ++stats_.instances_done;
    MarkSnapshotDirty();
    // Job-level health estimation (§4.3.2): a machine whose instances
    // repeatedly run far slower than the task average is a sick node.
    double avg = task->AverageDoneDuration();
    if (task->done_count() >= options_.slow_min_samples && avg > 0 &&
        rpc.elapsed > options_.slow_instance_factor * avg) {
      if (task->RecordSlowness(rpc.machine)) {
        HandleTaskBlacklist(task, rpc.machine);
      }
    }
  }
  if (done.other_worker.valid()) {
    auto oit = task->workers().find(done.other_worker);
    if (oit != task->workers().end()) {
      // The losing copy's machine was outrun; when the winner is a
      // backup the loser's host earns a slowness strike.
      if (done.first_completion && rpc.is_backup) {
        if (task->RecordSlowness(oit->second.machine)) {
          HandleTaskBlacklist(task, oit->second.machine);
        }
      }
      cluster_->network().Send(node_, oit->second.node,
                               CancelInstanceRpc{rpc.instance});
      DispatchTo(task, done.other_worker);
    }
  }
  if (task->HasWorker(rpc.worker)) {
    if (options_.reuse_containers) {
      DispatchTo(task, rpc.worker);
    } else {
      // YARN-style ablation: the container dies with its task; a fresh
      // one must be requested through another scheduling round.
      ReleaseWorker(task, rpc.worker);
      int64_t live = static_cast<int64_t>(task->workers().size());
      int64_t want_new = std::min<int64_t>(
          task->config().max_workers - live, task->pending_count());
      if (want_new > 0) {
        client_->SetDesired(task->slot_id(),
                            client_->granted_total(task->slot_id()) +
                                want_new);
      }
    }
  }
  OnTaskProgress(task);
}

void JobMaster::OnWorkerStatus(const WorkerStatusReportRpc& rpc) {
  TaskMaster* task = FindTask(rpc.task);
  if (task == nullptr) return;
  if (!task->HasWorker(rpc.worker)) {
    if (stopped_workers_.count(rpc.worker) > 0) {
      // A zombie we already stopped/presumed dead: re-assert the stop
      // (the original StopWorker may have raced this report) and take
      // only its completions below — do not re-adopt it.
      cluster_->network().Send(node_,
                               cluster_->agent(rpc.machine)->node(),
                               master::StopWorkerRpc{rpc.worker});
      TaskMaster* t = task;
      for (int64_t id : rpc.completed) {
        TaskMaster::DoneResult done =
            t->MarkDone(id, rpc.worker, cluster_->sim().Now());
        if (done.first_completion) {
          ++stats_.instances_done;
          MarkSnapshotDirty();
        }
      }
      return;
    }
    // A worker from before our restart: adopt it.
    task->AddWorker(rpc.worker, rpc.machine, rpc.worker_node,
                    cluster_->sim().Now());
  }
  task->TouchWorker(rpc.worker, cluster_->sim().Now());
  // Completions we may have missed.
  bool progressed = false;
  for (int64_t id : rpc.completed) {
    TaskMaster::DoneResult done =
        task->MarkDone(id, rpc.worker, cluster_->sim().Now());
    if (done.first_completion) {
      ++stats_.instances_done;
      progressed = true;
    }
    if (done.other_worker.valid()) {
      auto oit = task->workers().find(done.other_worker);
      if (oit != task->workers().end()) {
        cluster_->network().Send(node_, oit->second.node,
                                 CancelInstanceRpc{id});
      }
    }
  }
  if (progressed) MarkSnapshotDirty();
  auto wit = task->workers().find(rpc.worker);
  FUXI_CHECK(wit != task->workers().end());
  const TaskMaster::WorkerInfo& info = wit->second;
  if (rpc.running_instance >= 0) {
    const TaskMaster::InstanceState& state =
        task->instance(rpc.running_instance);
    if (state.state == TaskMaster::InstanceStateKind::kDone) {
      // Someone else already finished it.
      cluster_->network().Send(node_, rpc.worker_node,
                               CancelInstanceRpc{rpc.running_instance});
    } else if (info.instance != rpc.running_instance) {
      // Reattach (post-failover): bind the running instance to this
      // worker in our view.
      task->AttachRunning(rpc.running_instance, rpc.worker,
                          cluster_->sim().Now());
    }
  } else if (info.instance >= 0) {
    // We believe it is busy but it reports idle and has not completed
    // the instance: our ExecuteInstanceRpc was lost. Requeue + retry.
    const TaskMaster::InstanceState& state =
        task->instance(info.instance);
    bool completed_it =
        std::find(rpc.completed.begin(), rpc.completed.end(),
                  info.instance) != rpc.completed.end();
    if (!completed_it &&
        state.state == TaskMaster::InstanceStateKind::kRunning) {
      task->Requeue(info.instance, rpc.worker);
      DispatchTo(task, rpc.worker);
    }
  } else {
    DispatchTo(task, rpc.worker);
  }
  OnTaskProgress(task);
}

void JobMaster::OnWorkerCrashed(const master::WorkerCrashedRpc& rpc) {
  TaskMaster* task = FindTaskBySlot(rpc.slot_id);
  if (task == nullptr || !task->HasWorker(rpc.worker)) return;
  ++stats_.instance_failures;
  auto wit = task->workers().find(rpc.worker);
  int64_t instance = wit->second.instance;
  MachineId machine = wit->second.machine;
  auto removed = task->RemoveWorker(rpc.worker, /*count_as_failure=*/true);
  (void)removed;
  stopped_workers_.insert(rpc.worker);
  if (instance >= 0) {
    if (task->RecordFailure(instance, machine)) {
      HandleTaskBlacklist(task, machine);
    }
    MarkSnapshotDirty();
  }
  // rpc.restarted: the agent relaunched the process; the replacement
  // registers itself via WorkerReadyRpc. Otherwise the grant may still
  // stand — start a fresh worker.
  if (!rpc.restarted) TryStartWorkers(task, machine);
}

void JobMaster::HandleTaskBlacklist(TaskMaster* task, MachineId machine) {
  FUXI_LOG(kInfo) << "job " << app_.value() << " task "
                  << task->config().name << " blacklisted machine "
                  << machine.value();
  client_->Avoid(task->slot_id(),
                 cluster_->topology().machine(machine).hostname);
  // Evacuate gently: idle workers on the sick machine return their
  // containers immediately (FuxiMaster re-places them elsewhere — the
  // avoid list now excludes this machine); busy workers finish their
  // current instance (or get outrun by a backup copy) and are released
  // at their next dispatch, because PickInstanceFor refuses blacklisted
  // machines.
  std::vector<WorkerId> idle_here;
  for (const auto& [id, info] : task->workers()) {
    if (info.machine == machine && info.instance < 0) {
      idle_here.push_back(id);
    }
  }
  for (WorkerId id : idle_here) ReleaseWorker(task, id);
  // Job level: enough task blacklists escalate to the job blacklist and
  // a report to FuxiMaster for cross-job judgement (§4.3.2).
  int task_blacklists = 0;
  for (const auto& t : tasks_) {
    if (t->blacklist().count(machine) > 0) ++task_blacklists;
  }
  bool escalate =
      task_blacklists >= options_.job_blacklist_threshold ||
      static_cast<int>(tasks_.size()) < options_.job_blacklist_threshold;
  if (escalate && job_blacklist_.insert(machine).second) {
    for (auto& t : tasks_) {
      if (t->launched && !t->complete()) {
        client_->Avoid(t->slot_id(),
                       cluster_->topology().machine(machine).hostname);
      }
    }
    NodeId primary =
        cluster_->locks().Holder(master::FuxiMaster::kMasterLock);
    if (primary.valid()) {
      master::BadMachineReportRpc report;
      report.app = app_;
      report.machine = machine;
      cluster_->network().Send(node_, primary, report);
    }
  }
}

void JobMaster::OnAdoptQuery(const master::AdoptQueryRpc& rpc) {
  master::AdoptReplyRpc reply;
  reply.app = app_;
  reply.machine = rpc.machine;
  for (WorkerId id : rpc.workers) {
    for (const auto& task : tasks_) {
      if (task->HasWorker(id)) {
        reply.keep.push_back(id);
        break;
      }
    }
  }
  cluster_->network().Send(node_, rpc.agent_node, reply);
}

void JobMaster::OnTaskProgress(TaskMaster* task) {
  if (task != nullptr && task->complete()) {
    // Return every container of the finished task.
    std::vector<WorkerId> workers;
    for (const auto& [id, info] : task->workers()) workers.push_back(id);
    for (WorkerId id : workers) ReleaseWorker(task, id);
    client_->SetDesired(task->slot_id(),
                        client_->granted_total(task->slot_id()));
    LaunchRunnableTasks();
  }
  for (const auto& t : tasks_) {
    if (!t->complete()) return;
  }
  if (!finished_) {
    finished_ = true;
    stats_.finished_at = cluster_->sim().Now();
    stats_.backups_launched = 0;
    for (const auto& t : tasks_) {
      stats_.backups_launched += t->backups_launched();
    }
    WriteSnapshot();
    if (done_callback_) done_callback_(this);
  }
}

void JobMaster::BackupTick() {
  double now = cluster_->sim().Now();
  for (auto& task : tasks_) {
    if (!task->launched || task->complete()) continue;
    for (int64_t id : task->FindLongTails(now)) {
      // Pick an idle worker on a machine the instance has not failed on
      // and different from the primary's machine.
      const TaskMaster::InstanceState& state = task->instance(id);
      MachineId primary_machine;
      if (state.worker.valid()) {
        auto wit = task->workers().find(state.worker);
        if (wit != task->workers().end()) {
          primary_machine = wit->second.machine;
        }
      }
      for (WorkerId idle : task->IdleWorkers()) {
        const TaskMaster::WorkerInfo& info =
            task->workers().find(idle)->second;
        if (info.machine == primary_machine) continue;
        if (state.avoid.count(info.machine) > 0) continue;
        ExecuteInstanceRpc exec;
        exec.instance = id;
        exec.is_backup = true;
        exec.base_seconds = task->config().instance_seconds;
        exec.bytes = task->config().input_bytes_per_instance;
        exec.locality_factor =
            task->LocalityFactor(id, info.machine, cluster_->topology());
        task->MarkRunning(id, idle, now, /*is_backup=*/true);
        cluster_->network().Send(node_, info.node, exec);
        break;
      }
    }
  }
  // Presumed-dead workers: the status stream is the liveness signal.
  for (auto& task : tasks_) {
    if (!task->launched || task->complete()) continue;
    for (WorkerId silent :
         task->SilentWorkers(now, options_.worker_silence_timeout)) {
      auto removed = task->RemoveWorker(silent, /*count_as_failure=*/true);
      stopped_workers_.insert(silent);
      if (removed.ok()) {
        FUXI_LOG(kInfo) << "job " << app_.value() << " presumes worker "
                        << silent.value() << " dead (silent)";
        TryStartWorkers(task.get(), removed->machine);
      }
    }
    DispatchIdle(task.get());
  }
  // Garbage-collect worker-start plans nobody answered (agent died
  // while the plan was in flight) and retry the launch: the grant may
  // still stand.
  std::vector<std::pair<uint32_t, MachineId>> to_retry;
  for (auto it = pending_plans_.begin(); it != pending_plans_.end();) {
    if (now - it->second.sent_at > kPlanTimeout) {
      to_retry.emplace_back(it->second.slot, it->second.machine);
      it = pending_plans_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [slot, machine] : to_retry) {
    if (TaskMaster* task = FindTaskBySlot(slot)) {
      TryStartWorkers(task, machine);
    }
  }
  uint64_t life = life_;
  cluster_->sim().Schedule(options_.backup_check_interval, [this, life] {
    if (running_ && life == life_) BackupTick();
  });
}

void JobMaster::MarkSnapshotDirty() {
  snapshot_dirty_ = true;
  double now = cluster_->sim().Now();
  if (now - last_snapshot_at_ >= options_.snapshot_min_interval) {
    WriteSnapshot();
    return;
  }
  if (!snapshot_timer_armed_) {
    snapshot_timer_armed_ = true;
    uint64_t life = life_;
    cluster_->sim().Schedule(options_.snapshot_min_interval, [this, life] {
      snapshot_timer_armed_ = false;
      if (running_ && life == life_ && snapshot_dirty_) WriteSnapshot();
    });
  }
}

void JobMaster::WriteSnapshot() {
  // The light-weight instance-status snapshot (§4.3.1): only completed
  // instance ids per task. Exported on status-change events, throttled.
  Json snapshot = Json::MakeObject();
  Json tasks_json = Json::MakeObject();
  for (const auto& task : tasks_) {
    Json done = Json::MakeArray();
    for (int64_t id : task->DoneInstances()) done.Append(Json(id));
    Json t = Json::MakeObject();
    t["done"] = std::move(done);
    tasks_json[task->config().name] = std::move(t);
  }
  snapshot["tasks"] = std::move(tasks_json);
  cluster_->checkpoint().Put(SnapshotKey(), std::move(snapshot));
  ++snapshot_writes_;
  snapshot_dirty_ = false;
  last_snapshot_at_ = cluster_->sim().Now();
}

void JobMaster::RestoreFromSnapshot() {
  auto snapshot = cluster_->checkpoint().Get(SnapshotKey());
  if (!snapshot.ok()) return;  // nothing written yet: fresh start
  const Json* tasks_json = snapshot->Find("tasks");
  if (tasks_json == nullptr) return;
  int64_t done_total = 0;
  for (auto& task : tasks_) {
    std::vector<int64_t> done;
    if (const Json* t = tasks_json->Find(task->config().name)) {
      if (const Json* ids = t->Find("done")) {
        for (const Json& id : ids->as_array()) done.push_back(id.as_int());
      }
    }
    task->RestoreDone(done);
    done_total += task->done_count();
  }
  stats_.instances_done = done_total;
}

TaskMaster* JobMaster::FindTaskBySlot(uint32_t slot) {
  if (slot >= tasks_.size()) return nullptr;
  return tasks_[slot].get();
}

TaskMaster* JobMaster::FindTask(const std::string& name) {
  int index = desc_.FindTask(name);
  return index < 0 ? nullptr : tasks_[static_cast<size_t>(index)].get();
}

const TaskMaster* JobMaster::task(const std::string& name) const {
  int index = desc_.FindTask(name);
  return index < 0 ? nullptr : tasks_[static_cast<size_t>(index)].get();
}

}  // namespace fuxi::job
