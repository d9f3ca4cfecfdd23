#ifndef FUXI_JOB_MESSAGES_H_
#define FUXI_JOB_MESSAGES_H_

#include <string>
#include <vector>

#include "common/ids.h"
#include "wire/wire.h"

namespace fuxi::job {

/// TaskWorker → JobMaster: the worker process came up and is ready for
/// instances ("the application worker registers itself to the
/// application master", §2.2).
struct WorkerReadyRpc {
  AppId app;
  std::string task;
  WorkerId worker;
  MachineId machine;
  NodeId worker_node;
};

/// JobMaster → TaskWorker: execute one instance.
struct ExecuteInstanceRpc {
  int64_t instance = -1;
  bool is_backup = false;
  double base_seconds = 1.0;
  int64_t bytes = 0;
  /// Read-locality multiplier computed by the TaskMaster from the DFS
  /// placement (1.0 local, >1 rack/remote).
  double locality_factor = 1.0;
};

/// JobMaster → TaskWorker: abandon the current instance (backup copy
/// lost the race) and go idle.
struct CancelInstanceRpc {
  int64_t instance = -1;
};

/// TaskWorker → JobMaster: instance finished.
struct InstanceDoneRpc {
  AppId app;
  std::string task;
  int64_t instance = -1;
  bool is_backup = false;
  WorkerId worker;
  MachineId machine;
  double elapsed = 0;
};

/// TaskWorker → JobMaster: periodic status ("All TaskWorkers will
/// periodically report their status including execution progresses",
/// §4.2). Carries everything a restarted JobMaster needs to rebuild its
/// in-memory view: identity, the running instance, and all completed
/// instance ids this worker has produced.
struct WorkerStatusReportRpc {
  AppId app;
  std::string task;
  WorkerId worker;
  MachineId machine;
  NodeId worker_node;
  int64_t running_instance = -1;  ///< -1 when idle
  double progress = 0;            ///< [0,1] of the running instance
  std::vector<int64_t> completed;
};

// Wire layouts (fuxi::wire, DESIGN.md §10).
FUXI_WIRE_MESSAGE(WorkerReadyRpc, 1, m.app, m.task, m.worker, m.machine,
                  m.worker_node)
FUXI_WIRE_MESSAGE(ExecuteInstanceRpc, 1, m.instance, m.is_backup,
                  m.base_seconds, m.bytes, m.locality_factor)
FUXI_WIRE_MESSAGE(CancelInstanceRpc, 1, m.instance)
FUXI_WIRE_MESSAGE(InstanceDoneRpc, 1, m.app, m.task, m.instance, m.is_backup,
                  m.worker, m.machine, m.elapsed)
FUXI_WIRE_MESSAGE(WorkerStatusReportRpc, 1, m.app, m.task, m.worker,
                  m.machine, m.worker_node, m.running_instance, m.progress,
                  m.completed)

}  // namespace fuxi::job

#endif  // FUXI_JOB_MESSAGES_H_
