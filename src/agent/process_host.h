#ifndef FUXI_AGENT_PROCESS_HOST_H_
#define FUXI_AGENT_PROCESS_HOST_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "cluster/resource_vector.h"
#include "common/ids.h"
#include "common/json.h"
#include "obs/metrics_registry.h"

namespace fuxi::agent {

/// One OS process the machine is running (an application worker or an
/// application master).
struct Process {
  WorkerId id;
  AppId app;
  uint32_t slot_id = 0;
  NodeId owner_am;  ///< the application master controlling it
  cluster::ResourceVector limit;  ///< Cgroup limit (the grant's unit size)
  /// Actual consumption (soft-limit model); defaults to the limit. The
  /// harness raises it to simulate memory-leaking / bursting processes.
  cluster::ResourceVector usage;
  /// The worker description the application master sent, shared with
  /// every other process started from it (null: none).
  SharedJson plan;
  double started_at = 0;
  bool alive = true;
};

/// The machine's process table. Deliberately owned by the *machine*
/// (the harness), not by the FuxiAgent: when the agent crashes and
/// restarts, "existing running tasks will be adopted rather than being
/// killed" (§1) — so the processes must survive the agent. Launch/kill
/// callbacks let the job runtime attach real worker behaviour.
class ProcessHost {
 public:
  /// Invoked when a process starts; the job runtime spawns the worker
  /// actor here.
  using LaunchHook = std::function<void(const Process&)>;
  /// Invoked when a process is killed or dies.
  using KillHook = std::function<void(const Process&)>;

  /// Worker ids are namespaced by machine so they are unique across the
  /// cluster (id = machine * 1e6 + local counter).
  explicit ProcessHost(MachineId machine)
      : machine_(machine), next_id_(machine.value() * 1000000 + 1) {}

  void set_launch_hook(LaunchHook hook) { launch_hook_ = std::move(hook); }
  void set_kill_hook(KillHook hook) { kill_hook_ = std::move(hook); }

  /// Level gauge tracking live processes. Shared across the cluster's
  /// hosts (one gauge, every machine adds/subtracts), giving the
  /// cluster-wide running-process count without per-machine series.
  void set_running_gauge(obs::Gauge* gauge) { running_gauge_ = gauge; }

  MachineId machine() const { return machine_; }

  /// Starts a process and returns its id.
  WorkerId Launch(AppId app, uint32_t slot_id, NodeId owner_am,
                  const cluster::ResourceVector& limit, SharedJson plan,
                  double now) {
    WorkerId id = next_id_;
    next_id_ = WorkerId(next_id_.value() + 1);
    Process process{id,    app, slot_id, owner_am, limit, limit,
                    std::move(plan), now, true};
    auto [it, inserted] = processes_.emplace(id, std::move(process));
    // Ids only grow, so the new process goes at the end of its run.
    by_slot_.insert(SlotRun(app, slot_id).second,
                    SlotEntry{app, slot_id, &it->second});
    limit_total_ += limit;
    usage_total_ += limit;
    ++alive_count_;
    if (running_gauge_ != nullptr) running_gauge_->Add(1);
    if (launch_hook_) launch_hook_(it->second);
    return id;
  }

  /// Kills a process. Returns false when unknown or already dead.
  bool Kill(WorkerId id) {
    auto it = processes_.find(id);
    if (it == processes_.end() || !it->second.alive) return false;
    Process& process = it->second;
    process.alive = false;
    auto [first, last] = SlotRun(process.app, process.slot_id);
    by_slot_.erase(std::find_if(first, last, [&](const SlotEntry& entry) {
      return entry.process == &process;
    }));
    limit_total_ -= process.limit;
    usage_total_ -= process.usage;
    --alive_count_;
    if (running_gauge_ != nullptr) running_gauge_->Add(-1);
    if (kill_hook_) kill_hook_(process);
    processes_.erase(it);
    return true;
  }

  const Process* Find(WorkerId id) const {
    auto it = processes_.find(id);
    return it == processes_.end() ? nullptr : &it->second;
  }

  /// All live processes, in id order.
  std::vector<const Process*> Alive() const {
    std::vector<const Process*> out;
    for (const auto& [id, process] : processes_) {
      if (process.alive) out.push_back(&process);
    }
    return out;
  }

  /// One live process in the (app, slot) index. The key is kept inline
  /// so searching the index never touches the Process itself.
  struct SlotEntry {
    AppId app;
    uint32_t slot_id = 0;
    const Process* process = nullptr;
  };

  /// Every live process sorted by (app, slot_id, id), so each app's
  /// processes form one contiguous run. Launch and Kill invalidate it.
  const std::vector<SlotEntry>& AliveByApp() const { return by_slot_; }

  /// Live processes of one application slot, in id order (newest last).
  std::vector<const Process*> AliveOf(AppId app, uint32_t slot_id) const {
    auto [first, last] = SlotRun(app, slot_id);
    std::vector<const Process*> out;
    out.reserve(static_cast<size_t>(last - first));
    for (auto it = first; it != last; ++it) out.push_back(it->process);
    return out;
  }

  /// The (app, slot) pairs with at least one live process, in order.
  std::vector<std::pair<AppId, uint32_t>> AliveSlots() const {
    std::vector<std::pair<AppId, uint32_t>> out;
    for (const SlotEntry& entry : by_slot_) {
      std::pair<AppId, uint32_t> key{entry.app, entry.slot_id};
      if (out.empty() || out.back() != key) out.push_back(key);
    }
    return out;
  }

  /// How many processes AliveOf(app, slot_id) would return.
  size_t AliveCountOf(AppId app, uint32_t slot_id) const {
    auto [first, last] = SlotRun(app, slot_id);
    return static_cast<size_t>(last - first);
  }

  /// Sum of the resource limits of live processes (the machine "load"
  /// the Cgroup controller compares against capacity).
  const cluster::ResourceVector& TotalUsage() const { return limit_total_; }

  /// Sum of the ACTUAL usage of live processes (soft-limit model).
  const cluster::ResourceVector& TotalActualUsage() const {
    return usage_total_;
  }

  /// Overrides a process's actual usage (fault injection: runaway
  /// worker). Returns false for unknown/dead processes.
  bool SetProcessUsage(WorkerId id, const cluster::ResourceVector& usage) {
    auto it = processes_.find(id);
    if (it == processes_.end() || !it->second.alive) return false;
    usage_total_ -= it->second.usage;
    usage_total_ += usage;
    it->second.usage = usage;
    return true;
  }

  size_t alive_count() const { return alive_count_; }

 private:
  using SlotIndex = std::vector<SlotEntry>;

  /// The run of `by_slot_` holding (app, slot_id)'s live processes.
  std::pair<SlotIndex::const_iterator, SlotIndex::const_iterator> SlotRun(
      AppId app, uint32_t slot_id) const {
    auto first = std::partition_point(
        by_slot_.begin(), by_slot_.end(), [&](const SlotEntry& e) {
          return e.app < app || (e.app == app && e.slot_id < slot_id);
        });
    auto last = std::partition_point(first, by_slot_.end(),
                                     [&](const SlotEntry& e) {
                                       return e.app == app &&
                                              e.slot_id == slot_id;
                                     });
    return {first, last};
  }

  MachineId machine_;
  WorkerId next_id_;
  std::map<WorkerId, Process> processes_;
  /// Live processes sorted by (app, slot_id, id), so each slot's
  /// processes form one run in id order: 24 bytes a process, no node
  /// allocations. Kill updates the index, the totals and the count
  /// before the kill hook runs, so the hook sees the process as already
  /// gone, as Alive() does.
  SlotIndex by_slot_;
  cluster::ResourceVector limit_total_;
  cluster::ResourceVector usage_total_;
  size_t alive_count_ = 0;
  LaunchHook launch_hook_;
  KillHook kill_hook_;
  obs::Gauge* running_gauge_ = nullptr;
};

}  // namespace fuxi::agent

#endif  // FUXI_AGENT_PROCESS_HOST_H_
