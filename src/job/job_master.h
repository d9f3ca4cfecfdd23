#ifndef FUXI_JOB_JOB_MASTER_H_
#define FUXI_JOB_JOB_MASTER_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "job/description.h"
#include "job/messages.h"
#include "master/resource_client.h"
#include "runtime/sim_cluster.h"

namespace fuxi::job {

struct JobMasterOptions {
  /// Distinct instances that must fail on a machine before the *task*
  /// blacklists it (§4.3.2's bottom-up job-level blacklist).
  int task_blacklist_threshold = 2;
  /// Instances that must run `slow_instance_factor`x slower than the
  /// task average on a machine before it is treated as a slow/bad node.
  int slow_instance_threshold = 2;
  double slow_instance_factor = 3.0;
  /// Minimum completed instances before slowness judgements are made.
  int64_t slow_min_samples = 10;
  /// Tasks that must blacklist a machine before the *job* blacklists it
  /// and reports it to FuxiMaster for cross-job judgement.
  int job_blacklist_threshold = 2;
  /// Cadence of the long-tail / backup-instance check.
  double backup_check_interval = 2.0;
  /// A worker silent for this long is presumed dead and its instance
  /// requeued (the TaskWorker status stream doubles as its heartbeat).
  double worker_silence_timeout = 7.0;
  /// Fraction of instances that must be done before backups launch
  /// (criterion 1, §4.3.2).
  double backup_done_fraction = 0.9;
  /// How many times slower than the average done-instance duration a
  /// running instance must be (criterion 2).
  double backup_slowdown_factor = 2.0;
  /// Minimum spacing between instance-status snapshot writes; the
  /// snapshot is event-driven but throttled.
  double snapshot_min_interval = 0.5;
  /// Window of the pending queue scanned for a locality match when
  /// dispatching to an idle worker.
  size_t locality_scan_window = 32;
  /// Ablations (benchmarks flip these): Fuxi reuses a granted container
  /// for many instances (§3.2.3); with reuse off the container is
  /// released after every instance and re-requested, YARN-style.
  bool reuse_containers = true;
  /// With locality off, no DFS-based hints or preferred dispatch.
  bool use_locality = true;
};

/// Per-task instance scheduler (the TaskMaster of the two-level
/// hierarchical model, §4.4): owns the task's instances, dispatches
/// them to registered workers with data locality and load balance,
/// tracks failures for the multi-level blacklist, and runs the
/// backup-instance (speculative execution) scheme.
class TaskMaster {
 public:
  enum class InstanceStateKind { kPending, kRunning, kDone };

  struct InstanceState {
    InstanceStateKind state = InstanceStateKind::kPending;
    WorkerId worker;         ///< primary runner when kRunning
    WorkerId backup_worker;  ///< valid when a backup copy also runs
    double started_at = 0;
    int attempts = 0;
    std::vector<MachineId> preferred;  ///< replica machines of its input
    std::set<MachineId> avoid;         ///< machines it failed on
  };

  struct WorkerInfo {
    WorkerId worker;
    MachineId machine;
    NodeId node;
    int64_t instance = -1;  ///< -1 idle
    bool running_backup = false;
    double last_seen = 0;   ///< last ready/status/done from the worker
  };

  TaskMaster(const TaskConfig& config, uint32_t slot_id);

  const TaskConfig& config() const { return config_; }
  uint32_t slot_id() const { return slot_id_; }

  bool launched = false;   ///< demand published to FuxiMaster
  bool complete() const { return done_count_ == config_.instances; }
  int64_t done_count() const { return done_count_; }
  int64_t pending_count() const {
    return static_cast<int64_t>(pending_.size());
  }
  int64_t running_count() const { return running_count_; }
  int64_t backups_launched() const { return backups_launched_; }

  const std::map<WorkerId, WorkerInfo>& workers() const { return workers_; }
  const std::set<MachineId>& blacklist() const { return blacklist_; }

  /// Sets per-instance preferred machines from the DFS placement.
  void SetInstanceLocality(int64_t instance,
                           std::vector<MachineId> preferred);

  /// Registers a worker (container) of this task.
  void AddWorker(WorkerId worker, MachineId machine, NodeId node,
                 double now);

  /// Records worker liveness (any message from it).
  void TouchWorker(WorkerId worker, double now);

  /// Workers silent longer than `timeout`; the JobMaster treats them as
  /// dead (their status stream is the liveness signal).
  std::vector<WorkerId> SilentWorkers(double now, double timeout) const;
  bool HasWorker(WorkerId worker) const {
    return workers_.count(worker) > 0;
  }

  /// Removes a worker; a running instance on it is requeued. Returns
  /// its info (for container release bookkeeping).
  Result<WorkerInfo> RemoveWorker(WorkerId worker, bool count_as_failure);

  /// Picks the next instance for an idle worker, preferring instances
  /// whose input is local to the worker's machine (bounded scan).
  /// Returns -1 when nothing is dispatchable to this worker.
  int64_t PickInstanceFor(const WorkerInfo& worker);

  /// Marks the instance running on `worker`.
  void MarkRunning(int64_t instance, WorkerId worker, double now,
                   bool is_backup);

  /// Marks done. Returns the *other* worker still running a copy (to be
  /// cancelled), or an invalid WorkerId. No-op when already done.
  struct DoneResult {
    bool first_completion = false;
    WorkerId other_worker;  ///< running a redundant copy
  };
  DoneResult MarkDone(int64_t instance, WorkerId worker, double now);

  /// Instance failed on `machine`: requeues it, bumps the failure
  /// bookkeeping. Returns true when the machine newly entered the task
  /// blacklist.
  bool RecordFailure(int64_t instance, MachineId machine);

  /// Instance on `machine` ran far slower than the task average (the
  /// paper's job-level health estimation from worker statuses). Returns
  /// true when the machine newly entered the task blacklist.
  bool RecordSlowness(MachineId machine);

  /// Average duration of completed instances (0 when too few samples).
  double AverageDoneDuration() const {
    return done_count_ > 0
               ? done_duration_sum_ / static_cast<double>(done_count_)
               : 0;
  }

  /// Post-failover reattachment: binds a pending instance to the worker
  /// that reports to be running it.
  void AttachRunning(int64_t instance, WorkerId worker, double now);

  /// Puts a believed-running instance back into the pending queue and
  /// idles its worker (lost ExecuteInstance message).
  void Requeue(int64_t instance, WorkerId worker);

  /// Backup-instance sweep (paper's three criteria). Returns instances
  /// that deserve a backup copy right now.
  std::vector<int64_t> FindLongTails(double now) const;

  /// Locality factor for running `instance` on `machine` (1.0 local /
  /// 1.15 rack / 1.3 remote), given the topology.
  double LocalityFactor(int64_t instance, MachineId machine,
                        const cluster::ClusterTopology& topology) const;

  const InstanceState& instance(int64_t id) const {
    return instances_[static_cast<size_t>(id)];
  }

  /// Snapshot support: done instance ids (the light-weight state).
  std::vector<int64_t> DoneInstances() const;
  /// Restores "done" marks from a snapshot; everything else pending.
  void RestoreDone(const std::vector<int64_t>& done);

  /// Workers currently idle, in registration order.
  std::vector<WorkerId> IdleWorkers() const;

  JobMasterOptions options;

 private:
  TaskConfig config_;
  uint32_t slot_id_;
  std::vector<InstanceState> instances_;
  std::deque<int64_t> pending_;
  std::map<WorkerId, WorkerInfo> workers_;
  int64_t done_count_ = 0;
  int64_t running_count_ = 0;
  int64_t backups_launched_ = 0;
  double done_duration_sum_ = 0;
  std::map<MachineId, std::set<int64_t>> failures_by_machine_;
  std::map<MachineId, int> slow_counts_;
  std::set<MachineId> blacklist_;
};

/// The JobMaster: Fuxi's application master for DAG jobs (§4). Parses
/// the description, schedules tasks in topological order, negotiates
/// containers with FuxiMaster through the incremental protocol, runs a
/// TaskMaster per task for fine-grained instance scheduling, survives
/// its own crash via the instance-status snapshot, and feeds the
/// multi-level blacklist.
class JobMaster {
 public:
  struct Stats {
    double submitted_at = 0;
    double am_started_at = -1;
    double finished_at = -1;
    int64_t instances_done = 0;
    int64_t backups_launched = 0;
    int64_t workers_started = 0;
    int64_t instance_failures = 0;
    /// Worker start overhead (Table 2): plan sent -> agent confirms.
    double worker_start_latency_sum = 0;
    int64_t worker_start_count = 0;
    /// Instance running overhead (Table 2): AM-observed duration minus
    /// worker-observed execution time.
    double instance_overhead_sum = 0;
    int64_t instance_overhead_count = 0;
  };

  using DoneCallback = std::function<void(JobMaster*)>;

  JobMaster(runtime::SimCluster* cluster, AppId app, JobDescription desc,
            uint64_t seed, JobMasterOptions options = JobMasterOptions());
  ~JobMaster();

  void StartMaster();
  void CrashMaster();
  void RestartMaster();

  bool master_running() const { return running_; }
  bool finished() const { return finished_; }
  AppId app() const { return app_; }
  NodeId node() const { return node_; }
  const Stats& stats() const { return stats_; }
  const JobDescription& description() const { return desc_; }
  const TaskMaster* task(const std::string& name) const;
  const master::ResourceClient* client() const { return client_.get(); }

  void MarkSubmitted(double when) { stats_.submitted_at = when; }
  void set_done_callback(DoneCallback callback) {
    done_callback_ = std::move(callback);
  }

  /// Machines blacklisted at job level (reported to FuxiMaster).
  const std::set<MachineId>& job_blacklist() const { return job_blacklist_; }

  uint64_t snapshot_writes() const { return snapshot_writes_; }

 private:
  std::string SnapshotKey() const;

  void LaunchRunnableTasks();
  void LaunchTask(TaskMaster* task);
  bool TaskIsRunnable(const TaskMaster& task) const;
  void OnGrantChange(uint32_t slot, MachineId machine, int64_t delta,
                     resource::RevocationReason reason);
  void TryStartWorkers(TaskMaster* task, MachineId machine);
  void OnWorkerStarted(const master::WorkerStartedRpc& rpc);
  void OnWorkerReady(const WorkerReadyRpc& rpc);
  void OnInstanceDone(const InstanceDoneRpc& rpc);
  void OnWorkerStatus(const WorkerStatusReportRpc& rpc);
  void OnWorkerCrashed(const master::WorkerCrashedRpc& rpc);
  void OnAdoptQuery(const master::AdoptQueryRpc& rpc);
  void DispatchTo(TaskMaster* task, WorkerId worker);
  void DispatchIdle(TaskMaster* task);
  void ReleaseWorker(TaskMaster* task, WorkerId worker);
  void HandleTaskBlacklist(TaskMaster* task, MachineId machine);
  void OnTaskProgress(TaskMaster* task);
  void BackupTick();
  void MarkSnapshotDirty();
  void WriteSnapshot();
  void RestoreFromSnapshot();
  TaskMaster* FindTaskBySlot(uint32_t slot);
  TaskMaster* FindTask(const std::string& name);
  void ComputeLocality(TaskMaster* task);

  runtime::SimCluster* cluster_;
  AppId app_;
  JobDescription desc_;
  NodeId node_;
  Rng rng_;
  JobMasterOptions options_;

  bool running_ = false;
  bool finished_ = false;
  uint64_t life_ = 0;
  net::Endpoint endpoint_;
  std::unique_ptr<master::ResourceClient> client_;
  std::vector<std::unique_ptr<TaskMaster>> tasks_;
  /// Per task (indexed like tasks_): the description its workers start
  /// from, built once and shared by every StartWorkerRpc and process.
  std::vector<SharedJson> worker_plans_;
  uint64_t next_plan_id_ = 1;
  /// plan id -> (slot, machine, sent_at) awaiting WorkerStartedRpc.
  struct PendingPlan {
    uint32_t slot;
    MachineId machine;
    double sent_at;
  };
  std::map<uint64_t, PendingPlan> pending_plans_;
  /// Workers we stopped or presumed dead: their in-flight status
  /// reports must not be re-adopted as live workers (zombie guard).
  std::set<WorkerId> stopped_workers_;
  std::set<MachineId> job_blacklist_;

  bool snapshot_dirty_ = false;
  double last_snapshot_at_ = -1e9;
  bool snapshot_timer_armed_ = false;
  uint64_t snapshot_writes_ = 0;

  Stats stats_;
  DoneCallback done_callback_;
};

}  // namespace fuxi::job

#endif  // FUXI_JOB_JOB_MASTER_H_
