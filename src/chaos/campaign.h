#ifndef FUXI_CHAOS_CAMPAIGN_H_
#define FUXI_CHAOS_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/fault_schedule.h"
#include "chaos/invariant_monitor.h"
#include "common/json.h"
#include "obs/telemetry.h"
#include "runtime/sim_cluster.h"

namespace fuxi::chaos {

/// Everything one chaos campaign needs: the cluster shape, the
/// synthetic workload, the fault plan and the invariant tolerances.
/// A campaign is fully determined by (seed, config): rerunning the same
/// pair reproduces the identical fault log, event trace and state hash.
struct CampaignConfig {
  CampaignConfig();

  runtime::SimClusterOptions cluster;
  int apps = 2;
  /// Sharded clusters only: extra apps submitted through the router in
  /// the MIDDLE of the fault window, so routing happens while shards
  /// crash-loop and the directory is partitioned — the spillover-churn
  /// scenario. Ignored when cluster.shards == 1.
  int spillover_apps = 0;
  int64_t workers_per_app = 4;
  int64_t instances_per_app = 48;
  double instance_duration = 1.0;
  /// fuxi::planner workload: this many EXTRA apps whose single stage is
  /// a gang (all-or-nothing worker set with a lifetime estimate).
  /// Default 0 — the legacy campaigns and their golden digests never
  /// see a planner. Pair with plan.planner_faults for the planner
  /// chaos scenario.
  int planner_apps = 0;
  /// Multi-tenant fair-share chaos: when > 0, every master is
  /// configured with a tenant tree of this many leaf tenants (depth
  /// `tenant_depth`; 1 = the legacy flat quota shape) carved from the
  /// cluster capacity, and every workload app is submitted under a leaf
  /// chosen by app id. 0 keeps the legacy untenanted campaign — and its
  /// golden digests — byte-identical.
  int tenants = 0;
  int tenant_depth = 2;
  /// Election + first heartbeats settle before submission.
  double warmup = 3.0;
  CampaignPlanOptions plan;
  /// Eventual-completion deadline after HealEverything(); missing it is
  /// itself an invariant violation (liveness once faults cease).
  double settle_timeout = 300.0;
  /// Quiesced tail after completion so sustained-condition trackers and
  /// the final reconcile sweep get a chance to fire or clear.
  double cooldown = 25.0;
  /// Virtual seconds between digest lines in the replay trace.
  double digest_interval = 5.0;
  /// Chaos knob: skip the Figure 7 grant restore on failover, seeding
  /// the double-grant bug the monitor must catch.
  bool seed_restore_bug = false;
  /// Snapshot the decision-audit ring into the result even on PASS
  /// (failures always capture it). Single-seed replays set this so
  /// `fuxi explain` — including --tenant rejection chains — always has
  /// input to work with.
  bool dump_audit = false;
  InvariantMonitorOptions monitor;
};

struct CampaignResult {
  uint64_t seed = 0;
  bool completed = false;      ///< every app finished before the deadline
  double completed_at = -1;
  double ended_at = 0;
  uint64_t events = 0;         ///< simulator events executed
  uint64_t heavy_checks = 0;
  uint64_t state_hash = 0;     ///< monitor digest over all heavy sweeps
  int64_t instances_done = 0;
  std::vector<Violation> violations;
  std::string fault_log;       ///< injected faults with virtual times
  std::string trace;           ///< periodic state digests (replay witness)
  /// Captured only when the campaign failed: per-machine live
  /// processes and agent capacity tables at the end of the run.
  std::string residual_state;
  /// Chrome trace_event JSON from the flight recorder, snapshotted at
  /// the first violation (see InvariantMonitor::trace_dump). Not part
  /// of the determinism-compared replay artifacts: it carries wall-
  /// clock annotations on scheduler spans.
  std::string chrome_trace;
  /// Decision-audit JSON from the audit ring, snapshotted at the first
  /// violation (see InvariantMonitor::audit_dump) — the input for
  /// `fuxi explain`. Fully virtual-time stamped, so unlike
  /// chrome_trace it replays byte-identically from the seed.
  std::string audit_json;
  /// End-of-run metrics registry dump (obs::MetricsToCsv), always
  /// captured. Carries the exact per-message-type wire accounting
  /// (net.msgs.<type> / net.bytes.<type>) — `fuxi wire` renders the
  /// byte-volume table.
  std::string metrics_csv;
  /// Virtual-time telemetry dump (obs::ExportTelemetryJson): every
  /// sampled series delta-encoded plus the watchdog event log — the
  /// input for `fuxi dash`. Captured whenever the sampler ran;
  /// empty when telemetry is disabled. Like
  /// metrics_csv it is NOT folded into replay_digest: deterministic
  /// series are compared separately by the telemetry battery, and the
  /// dump also carries realtime-tagged (wall-clock) series.
  std::string telemetry_json;
  /// SLO watchdog firings, in virtual-time order — degradation signals
  /// raised while the campaign ran (demand starvation, overcommit,
  /// decode-drop spikes, ...), available even when every invariant held.
  std::vector<obs::HealthEvent> health_events;
  /// FNV-1a fold of the campaign's replay artifacts: the fault log, the
  /// digest trace (every line of which embeds the monitor's rolling
  /// grant-log/state digest), every violation, and the scalar outcomes
  /// (completion, events, instances, state hash). This is the
  /// fingerprint the parallel sweep engine compares between --jobs 1
  /// and --jobs N: any divergence means a campaign observed state it
  /// does not own. metrics_csv is deliberately NOT folded in — it is
  /// compared separately by the determinism battery, so the digest
  /// stays invariant across wire-mode ablations whose CI legs diff
  /// sweep output line-for-line.
  uint64_t replay_digest = 0;

  bool ok() const { return completed && violations.empty(); }
};

/// Runs one campaign: builds a SimCluster, submits synthetic apps,
/// expands the seeded fault schedule, monitors invariants continuously,
/// heals, and demands eventual completion. Sharded configs
/// (cluster.shards > 1) submit through the federation router and bind
/// each app to the shard that accepted it.
CampaignResult RunCampaign(uint64_t seed, const CampaignConfig& config);

/// A federation campaign shape: `shards` fault domains over a 4x4
/// topology, one app per shard plus a mid-window spillover wave, and a
/// fault mix including shard crash-loops and directory outages.
CampaignConfig ShardedCampaignConfig(int shards);

/// Human-readable failure dump: violations, fault schedule and trace —
/// everything needed to replay the failure from its seed.
std::string FormatCampaignFailure(const CampaignResult& result);

/// The incident bundle: one JSON object holding every machine-readable
/// artifact of the campaign, each under its own key and present only
/// when captured —
///   traceEvents, displayTimeUnit  the flight recorder (ChromeTraceJson),
///                                 so the file still opens in Perfetto;
///   auditRecords                  the decision audit (AuditJson);
///   telemetry                     the TelemetryJson document, nested
///                                 because the Chrome trace format
///                                 reserves a top-level `samples`;
///   metrics                       the MetricsToCsv text as one string.
/// `fuxi spans|wire|explain|dash` reads it.
Json IncidentJson(const CampaignResult& result);

struct SweepResult {
  int passed = 0;
  int failed = 0;
  std::vector<uint64_t> failing_seeds;
  std::vector<CampaignResult> failures;
  /// Seed-ordered replay digests, one per swept seed (digests[i] is
  /// seed first_seed + i). The --jobs 1 and --jobs N vectors must be
  /// identical element for element.
  std::vector<uint64_t> digests;
  /// Workers the sweep actually fanned out over (1 = serial).
  int jobs = 1;
  /// Wall-clock of the whole sweep, for the CI regression record.
  double wall_seconds = 0;
  /// The runner's accounting exported through a MetricsRegistry
  /// (sweep::ExportStats) as obs::MetricsToCsv — sweep.tasks is
  /// deterministic, the steal/worker/wall rows carry realtime=1.
  /// `fuxi wire` renders it as the parallel-sweep health table.
  std::string sweep_metrics_csv;
};

/// Runs `count` campaigns with seeds first_seed .. first_seed+count-1.
/// `jobs` fans the seeds out across a work-stealing worker pool (see
/// fuxi::sweep::SweepRunner): 1 runs serially on the calling thread,
/// 0 uses one worker per hardware core. Each seed gets its own
/// SimCluster on whichever worker picks it up; the reduction into
/// SweepResult is always performed in seed order after every campaign
/// finished, so the result — including the order of `failures` — is
/// byte-identical for every jobs value.
SweepResult RunSeedSweep(uint64_t first_seed, int count,
                         const CampaignConfig& config, int jobs = 1);

}  // namespace fuxi::chaos

#endif  // FUXI_CHAOS_CAMPAIGN_H_
