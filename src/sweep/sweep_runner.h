#ifndef FUXI_SWEEP_SWEEP_RUNNER_H_
#define FUXI_SWEEP_SWEEP_RUNNER_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "obs/metrics_registry.h"

namespace fuxi::sweep {

/// How many workers a sweep fans out over.
struct SweepRunnerOptions {
  /// Worker threads. 1 runs every task inline on the calling thread (no
  /// threads are created — the serial reference mode the determinism
  /// battery compares against); 0 means one worker per hardware core;
  /// any other value is used as given, even above the core count
  /// (oversubscription is a useful interleaving stressor).
  int jobs = 1;
};

/// Per-Run() accounting, for the CI wall-clock record and the
/// work-stealing tests.
struct SweepRunnerStats {
  size_t tasks = 0;         ///< indices executed by the last Run()
  size_t steals = 0;        ///< tasks executed off another worker's queue
  int workers = 0;          ///< threads actually spawned (0 = ran inline)
  double wall_seconds = 0;  ///< wall-clock of the last Run()
};

/// Work-stealing parallel-for over independent indices.
///
/// Each worker owns a deque pre-striped with every jobs-th index; it
/// pops work from the front of its own deque and, when empty, steals
/// from the back of the first non-empty victim. Campaign-grained tasks
/// (milliseconds to seconds each) make a mutex per deque cheaper than
/// anything lock-free would buy.
///
/// The contract that makes parallel sweeps safe to trust:
///  * every index in [0, count) runs exactly once, on exactly one
///    worker;
///  * `fn` must touch only state owned by its index (each chaos seed
///    builds its own SimCluster; the per-cluster Observability bundle
///    keeps metrics/trace/audit isolated) — the determinism battery in
///    tests/sweep_test.cc enforces this by comparing jobs=1 and jobs=N
///    digests byte for byte;
///  * reductions stay deterministic because callers collect results
///    into a caller-owned, index-addressed slot (see RunIndexed) and
///    fold them in index order after Run() returns, never in
///    completion order;
///  * an exception thrown by `fn` is captured, the remaining queue is
///    drained without running further tasks, and the lowest-index
///    exception is rethrown from Run() on the calling thread.
class SweepRunner {
 public:
  explicit SweepRunner(SweepRunnerOptions options = {});

  /// The resolved worker count (options.jobs with 0 expanded to the
  /// hardware concurrency).
  int jobs() const { return jobs_; }

  /// Runs fn(0) .. fn(count-1), each exactly once. Blocks until every
  /// task finished (or was abandoned after a thrown exception).
  void Run(size_t count, const std::function<void(size_t)>& fn);

  const SweepRunnerStats& stats() const { return stats_; }

 private:
  int jobs_;
  SweepRunnerStats stats_;
};

/// Seed-ordered reduction helper: results land in an index-addressed
/// vector, so the caller's fold over them is independent of which
/// worker finished when.
template <typename R>
std::vector<R> RunIndexed(size_t count, const std::function<R(size_t)>& fn,
                          SweepRunnerOptions options = {},
                          SweepRunnerStats* stats = nullptr) {
  std::vector<R> results(count);
  SweepRunner runner(options);
  runner.Run(count, [&results, &fn](size_t i) { results[i] = fn(i); });
  if (stats != nullptr) *stats = runner.stats();
  return results;
}

/// Publishes a Run()'s accounting through a MetricsRegistry so
/// parallel-sweep health travels the same export paths as every other
/// instrument (MetricsToCsv, telemetry dumps, `fuxi wire`):
/// counters sweep.tasks / sweep.steals, gauges sweep.workers /
/// sweep.wall_seconds. Steals, worker count and wall-clock depend on
/// the host and scheduling luck, so they are tagged realtime;
/// sweep.tasks is deterministic.
void ExportStats(const SweepRunnerStats& stats,
                 obs::MetricsRegistry* registry);

/// Parses a --jobs flag value: "max" or "0" → 0 (one per core), else
/// the integer (minimum 1).
int ParseJobs(const char* text);

/// Default parallelism for test sweeps: the FUXI_SWEEP_JOBS environment
/// variable when set (same "max"/number grammar as --jobs), else one
/// worker per hardware core. Never returns less than 2 — on a
/// single-core host the determinism battery still wants real thread
/// interleaving to bite.
int DefaultSweepJobs();

}  // namespace fuxi::sweep

#endif  // FUXI_SWEEP_SWEEP_RUNNER_H_
