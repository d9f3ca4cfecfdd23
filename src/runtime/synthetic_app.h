#ifndef FUXI_RUNTIME_SYNTHETIC_APP_H_
#define FUXI_RUNTIME_SYNTHETIC_APP_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "master/resource_client.h"
#include "runtime/sim_cluster.h"

namespace fuxi::runtime {

/// Configuration of one stage (ScheduleUnit) of a synthetic job: e.g.
/// the map stage of a WordCount with 100 instances over 10 workers.
struct SyntheticStage {
  uint32_t slot_id = 0;
  resource::Priority priority = 100;
  cluster::ResourceVector unit{50, 2048};  ///< 0.5 core + 2 GB (paper §5.2)
  int64_t workers = 1;     ///< parallelism (units requested)
  int64_t instances = 1;   ///< work items executed across the workers
  double instance_duration = 1.0;  ///< seconds per instance
  /// Stage starts only when this slot finishes (-1 = start immediately);
  /// models map -> reduce dependencies.
  int depends_on = -1;
  /// Planner metadata (fuxi::planner): lifetime estimate, reservation
  /// window, gang membership. Any() == false leaves the stage on the
  /// legacy instantaneous-only path.
  resource::PlanningHints plan;
};

/// A synthetic application master: requests units via the incremental
/// protocol, launches a worker per granted unit, runs `instances` work
/// items across its workers (reusing containers for consecutive
/// instances, as Fuxi does and YARN does not — §3.2.3), releases units
/// when a stage drains, and finishes when every stage is done. Used by
/// the scheduling-performance and utilization experiments (Fig 9/10,
/// Table 2).
class SyntheticApp {
 public:
  struct Stats {
    double submitted_at = 0;
    double am_started_at = -1;
    double finished_at = -1;
    int64_t instances_done = 0;
    int64_t workers_started = 0;
    double worker_start_latency_sum = 0;  ///< plan->first status (Table 2)
    int64_t worker_start_count = 0;
  };

  using DoneCallback = std::function<void(SyntheticApp*)>;

  SyntheticApp(SimCluster* cluster, AppId app,
               std::vector<SyntheticStage> stages, uint64_t seed);
  ~SyntheticApp();

  /// Brings the application master up (normally invoked by the agent's
  /// AppMasterLauncher once FuxiMaster schedules the AM).
  void StartMaster();

  /// Crashes the AM process (JobMaster-failure injection). Workers keep
  /// running; a restarted AM re-adopts them.
  void CrashMaster();
  void RestartMaster();

  bool master_running() const { return running_; }
  bool finished() const { return finished_; }
  AppId app() const { return app_; }
  NodeId node() const { return node_; }
  const Stats& stats() const { return stats_; }
  int64_t running_workers() const;

  void set_done_callback(DoneCallback callback) {
    done_callback_ = std::move(callback);
  }

  /// The protocol client (benchmarks read message counters off it).
  const master::ResourceClient* client() const { return client_.get(); }

  /// Options for the protocol client (applied at the next (re)start).
  /// Sharded clusters set `master_lock` here so the app follows its
  /// assigned shard's primary instead of the default election lease.
  void set_client_options(master::ResourceClientOptions options) {
    client_options_ = std::move(options);
  }
  void set_master_lock(const std::string& lock) {
    client_options_.master_lock = lock;
  }

  /// Resources this application currently believes it holds
  /// (AM_obtained in Figure 10).
  cluster::ResourceVector GrantedResources() const {
    cluster::ResourceVector total;
    if (client_ == nullptr) return total;
    for (const StageState& stage : stages_) {
      total += stage.config.unit *
               client_->granted_total(stage.config.slot_id);
    }
    return total;
  }

  /// Marks submission time for overhead accounting.
  void MarkSubmitted(double when) { stats_.submitted_at = when; }

 private:
  struct WorkerRecord {
    WorkerId worker;
    MachineId machine;
    uint32_t slot_id = 0;
    bool busy = false;
    sim::EventHandle work_timer;
  };

  /// A worker-start plan awaiting the agent's reply.
  struct PendingPlan {
    MachineId machine;
    double sent_at = 0;  ///< Table 2 start latency
  };

  struct StageState {
    SyntheticStage config;
    /// The description every worker of the stage starts from, built
    /// once and shared by each StartWorkerRpc and process.
    SharedJson worker_plan;
    int64_t remaining_instances = 0;  ///< not yet started
    int64_t inflight = 0;             ///< currently executing
    int64_t done = 0;
    bool launched = false;  ///< demand published
    bool complete = false;
    /// Worker-start plans awaiting agent replies, keyed by plan id.
    std::map<uint64_t, PendingPlan> pending_plans;
  };

  resource::ScheduleUnitDef MakeDefFor(const StageState& stage) const;
  void LaunchStage(StageState* stage);
  void OnGrantChange(uint32_t slot, MachineId machine, int64_t delta,
                     resource::RevocationReason reason);
  void TryStartWorkers(StageState* stage, MachineId machine);
  void OnWorkerStarted(const master::WorkerStartedRpc& rpc);
  void OnWorkerCrashed(const master::WorkerCrashedRpc& rpc);
  void OnAdoptQuery(const master::AdoptQueryRpc& rpc);
  void AssignWork(WorkerRecord* worker);
  void FinishInstance(WorkerId worker_id);
  void CheckStageCompletion(StageState* stage);
  StageState* FindStage(uint32_t slot_id);

  SimCluster* cluster_;
  AppId app_;
  NodeId node_;
  std::vector<StageState> stages_;
  Rng rng_;

  net::Endpoint endpoint_;
  master::ResourceClientOptions client_options_;
  std::unique_ptr<master::ResourceClient> client_;
  bool running_ = false;
  bool finished_ = false;
  uint64_t life_ = 0;
  uint64_t next_plan_id_ = 1;
  std::map<WorkerId, WorkerRecord> workers_;
  Stats stats_;
  DoneCallback done_callback_;
};

}  // namespace fuxi::runtime

#endif  // FUXI_RUNTIME_SYNTHETIC_APP_H_
