#include "job/job_runtime.h"

#include "common/logging.h"
#include "master/messages.h"

namespace fuxi::job {

JobRuntime::JobRuntime(runtime::SimCluster* cluster,
                       JobMasterOptions options)
    : cluster_(cluster), options_(options) {
  InstallHooks();
}

JobRuntime::~JobRuntime() {
  for (auto& [id, worker] : workers_) worker->Kill();
}

void JobRuntime::InstallHooks() {
  // Process launches on any machine: plans tagged "fuxi_job" become
  // TaskWorker actors.
  for (const cluster::Machine& machine : cluster_->topology().machines()) {
    agent::ProcessHost* host = cluster_->host(machine.id);
    MachineId machine_id = machine.id;
    host->set_launch_hook([this, machine_id](const agent::Process& process) {
      if (process.plan == nullptr) return;
      const Json* job_tag = process.plan->Find("fuxi_job");
      if (job_tag == nullptr) return;  // not a Fuxi-job worker
      AppId app = AppId(job_tag->as_int());
      std::string task = process.plan->GetString("task");
      auto worker = std::make_unique<TaskWorker>(
          cluster_, app, task, process.id, machine_id,
          cluster_->AllocateNodeId(), process.owner_am, rng_.Next());
      TaskWorker* ptr = worker.get();
      workers_[process.id] = std::move(worker);
      ptr->Start();
    });
    host->set_kill_hook([this](const agent::Process& process) {
      auto it = workers_.find(process.id);
      if (it == workers_.end()) return;
      it->second->Kill();
      workers_.erase(it);
    });
  }
  // Application-master starts requested by FuxiMaster via agents.
  cluster_->SetAppMasterLauncher(
      [this](const master::StartAppMasterRpc& rpc, MachineId machine) {
        (void)machine;
        auto it = jobs_.find(rpc.app);
        if (it == jobs_.end()) return;
        JobMaster* job = it->second.get();
        if (job->master_running() || job->finished()) return;
        if (job->stats().am_started_at < 0) {
          job->StartMaster();
        } else {
          job->RestartMaster();  // AM died earlier; this is a failover
        }
      });
}

Result<JobMaster*> JobRuntime::Submit(const JobDescription& description) {
  return Submit(description, options_);
}

Result<JobMaster*> JobRuntime::Submit(const JobDescription& description,
                                      const JobMasterOptions& options) {
  FUXI_RETURN_IF_ERROR(description.Validate());
  AppId app = next_app_;
  next_app_ = AppId(app.value() + 1);
  auto job = std::make_unique<JobMaster>(cluster_, app, description,
                                         rng_.Next(), options);
  JobMaster* ptr = job.get();
  jobs_[app] = std::move(job);
  ptr->MarkSubmitted(cluster_->sim().Now());

  NodeId primary =
      cluster_->locks().Holder(master::FuxiMaster::kMasterLock);
  if (!primary.valid()) {
    return Status::Unavailable("no FuxiMaster primary elected");
  }
  master::SubmitAppRpc submit;
  submit.app = app;
  submit.tenant_path = description.tenant_path;
  submit.weight = description.tenant_weight;
  submit.description = description.ToJson();
  submit.client = cluster_->AllocateNodeId();
  cluster_->network().Send(submit.client, primary, submit);
  return ptr;
}

JobMaster* JobRuntime::job(AppId app) {
  auto it = jobs_.find(app);
  return it == jobs_.end() ? nullptr : it->second.get();
}

bool JobRuntime::AllFinished() const {
  for (const auto& [app, job] : jobs_) {
    if (!job->finished()) return false;
  }
  return true;
}

bool JobRuntime::IsAppLive(AppId app) const {
  auto it = jobs_.find(app);
  return it != jobs_.end() && !it->second->finished();
}

bool JobRuntime::RunUntilAllFinished(double deadline) {
  while (cluster_->sim().Now() < deadline) {
    if (AllFinished()) return true;
    cluster_->RunFor(1.0);
  }
  return AllFinished();
}

TaskWorker* JobRuntime::worker(WorkerId id) {
  auto it = workers_.find(id);
  return it == workers_.end() ? nullptr : it->second.get();
}

}  // namespace fuxi::job
