#ifndef FUXI_TRACE_WORKLOADS_H_
#define FUXI_TRACE_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "job/description.h"
#include "runtime/synthetic_app.h"

namespace fuxi::trace {

/// Generates the §5.2 synthetic workload: WordCount and TeraSort jobs
/// with (map, reduce) instance counts of (10,10), (100,10), (100,100),
/// (1k,100), (1k,1k) and (10k,5k) evenly distributed, instance
/// durations spanning 10 s … 10 min, and 0.5-core/2 GB units.
struct SyntheticWorkloadOptions {
  /// Scales all instance counts down (1.0 = the paper's sizes). The
  /// shape of the mix is preserved.
  double instance_scale = 1.0;
  /// Scales instance durations (paper range: 10 s to 10 min).
  double min_instance_seconds = 10;
  double max_instance_seconds = 600;
  cluster::ResourceVector unit{50, 2048};  ///< 0.5 core, 2 GB
  int64_t max_workers_per_task = 200;
};

class SyntheticWorkload {
 public:
  using Options = SyntheticWorkloadOptions;

  explicit SyntheticWorkload(uint64_t seed, Options options = Options())
      : rng_(seed), options_(options) {}

  /// The six (map, reduce) shapes of the paper.
  static const std::vector<std::pair<int64_t, int64_t>>& Shapes();

  /// Next job as a full DAG JobDescription (map -> reduce).
  job::JobDescription NextJobDescription();

  /// Next job as SyntheticApp stages (the lighter-weight form used by
  /// the large-scale scheduling benchmarks).
  std::vector<runtime::SyntheticStage> NextStages();

 private:
  struct Shape {
    int64_t maps;
    int64_t reduces;
    double seconds;
    bool wordcount;
  };
  Shape NextShape();

  Rng rng_;
  Options options_;
  int64_t counter_ = 0;
};

/// Row of the Table 1 statistics (avg/max/total per entity).
struct TraceStats {
  double avg_instances_per_task = 0;
  int64_t max_instances_per_task = 0;
  int64_t total_instances = 0;
  double avg_workers_per_task = 0;
  int64_t max_workers_per_task = 0;
  int64_t total_workers = 0;
  double avg_tasks_per_job = 0;
  int64_t max_tasks_per_job = 0;
  int64_t total_tasks = 0;
  int64_t total_jobs = 0;
};

/// Synthesizes a production-like tracelog with the heavy-tailed shape
/// of Table 1 (91,990 jobs; 185k tasks; 42 M instances; 16.3 M
/// workers). Only the published aggregate statistics are known, so the
/// generator draws tasks-per-job, instances-per-task and
/// workers-per-task from truncated power-law/log-normal distributions
/// calibrated to reproduce those aggregates.
struct ProductionTraceOptions {
  int64_t jobs = 91990;
  /// Calibrated distribution parameters (see bench_table1 output).
  double tasks_pareto_alpha = 1.7;
  int64_t max_tasks_per_job = 150;
  double instances_lognormal_mu = 3.62;
  double instances_lognormal_sigma = 1.9;
  int64_t max_instances_per_task = 99937;
  int64_t max_workers_per_task = 4636;
};

class ProductionTraceSynthesizer {
 public:
  using Options = ProductionTraceOptions;

  explicit ProductionTraceSynthesizer(uint64_t seed,
                                      Options options = Options())
      : rng_(seed), options_(options) {}

  /// Generates the trace and returns its aggregate statistics.
  TraceStats Synthesize();

 private:
  Rng rng_;
  Options options_;
};

/// The §5.4 / Table 3 fault-injection plan: which machines experience
/// which fault for a given injection ratio on a given cluster size.
struct FaultPlan {
  std::vector<MachineId> node_down;
  std::vector<MachineId> partial_worker_failure;
  std::vector<MachineId> slow_machine;
  bool kill_fuxi_master = false;

  size_t total_faulty() const {
    return node_down.size() + partial_worker_failure.size() +
           slow_machine.size();
  }
};

/// Builds the paper's fault mixes: at 5% of 300 nodes — 2 NodeDown,
/// 2 PartialWorkerFailure, 11 SlowMachine; at 10% — 2/4/23 (Table 3).
/// Other ratios scale the same 2:2:11 mix.
FaultPlan MakeFaultPlan(double ratio, size_t machine_count, uint64_t seed);

// ---------------------------------------------------------------------
// Hierarchical multi-tenant population (fair-share tree workloads)
// ---------------------------------------------------------------------

/// Knobs for synthesizing a tenant tree population: thousands of leaf
/// tenants under a few root organizations, Zipf-skewed demand (a few
/// tenants want most of the cluster; a long tail wants a unit or two)
/// and weight diversity to exercise the surplus-sharing math.
struct TenantPopulationOptions {
  int64_t tenants = 1000;  ///< leaf tenant count
  int64_t orgs = 10;       ///< root-level organizations
  /// Tree depth: 1 = flat root-level tenants (the legacy shape),
  /// 2 = org/tenant, 3 = org/team/tenant.
  int depth = 2;
  int64_t teams_per_org = 4;  ///< only used at depth 3
  double zipf_s = 1.2;        ///< Zipf exponent for demand skew
  /// Fraction of cluster capacity carved into org guarantees; the rest
  /// is unguaranteed surplus shared by weight.
  double guarantee_fraction = 0.6;
  cluster::ResourceVector unit{50, 2048};  ///< 0.5 core, 2 GB
  int64_t max_units = 64;  ///< demand cap per tenant, in units
};

/// One leaf tenant: its path, fair-share weight and steady-state demand.
struct TenantSpec {
  std::string path;        ///< e.g. "org3/team1/tenant42"
  double weight = 1.0;
  int64_t demand_units = 0;
};

/// A generated population: the bounded nodes to configure up front
/// (parents before children, so CreateTenantNode can be called in
/// order) plus every leaf tenant with its demand.
struct TenantPopulation {
  struct Node {
    std::string path;
    cluster::ResourceVector guarantee;
    double weight = 1.0;
  };
  std::vector<Node> nodes;
  std::vector<TenantSpec> tenants;
};

/// Synthesizes a deterministic tenant population against `capacity`.
/// At depth 1 every tenant is a root-level bounded node with default
/// weight and no budget — the flat shape Scheduler::CreateQuotaGroup
/// builds.
TenantPopulation MakeTenantPopulation(
    uint64_t seed, const cluster::ResourceVector& capacity,
    TenantPopulationOptions options = TenantPopulationOptions());

}  // namespace fuxi::trace

#endif  // FUXI_TRACE_WORKLOADS_H_
