#ifndef FUXI_RESOURCE_SCHEDULER_H_
#define FUXI_RESOURCE_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/topology.h"
#include "common/ids.h"
#include "common/status.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "planner/planner.h"
#include "resource/fairshare.h"
#include "resource/locality_tree.h"
#include "resource/request.h"

namespace fuxi::resource {

/// Runtime state of one machine inside the scheduler: its current free
/// pool and the grants charged against it.
struct MachineState {
  bool online = true;
  cluster::ResourceVector capacity;
  cluster::ResourceVector free;
  /// Units granted on this machine per (app, slot).
  std::map<SlotKey, int64_t> grants;

  // --- incremental-index state, maintained by the Scheduler ----------

  /// Bumped on every change to `free` (grant, revoke, capacity change,
  /// online/offline flip). Versions the cached fit result below.
  uint64_t free_epoch = 1;
  /// Negative-fit cache: while `no_fit_epoch == free_epoch`, any unit
  /// needing componentwise >= `no_fit_unit` cannot fit the free pool
  /// (dominance: if some dimension of the cached unit exceeded the free
  /// vector, a larger unit exceeds it too). 0 = nothing cached.
  uint64_t no_fit_epoch = 0;
  cluster::ResourceVector no_fit_unit;
  /// Scheduler world epoch recorded when the last queue walk over this
  /// machine completed; a pass re-run at an unchanged epoch is skipped.
  uint64_t last_pass_epoch = 0;
};

/// FuxiMaster's incremental resource scheduler (paper §3). This class
/// is the pure decision engine: it owns the free-resource pool, the
/// locality tree of waiting requests, quota accounting and preemption.
/// It is deliberately independent of any messaging so that
///   * the protocol layer (master/) can drive it from simulated RPCs, and
///   * benchmarks can measure a single scheduling decision's real cost
///     (Figure 9) without simulation overhead.
///
/// Incremental principle: every entry point touches only the machines
/// implicated by the change (the machine a grant freed up on, the
/// machines a new hint names, ...) — never the full cluster. The
/// supporting indexes, all updated on grant/revoke/delta instead of
/// being rebuilt per decision:
///   * sorted per-demand hint maps (see PendingDemand) — no per-call
///     snapshot-and-sort;
///   * `free_machines_` / `rack_free_` — machines with a non-empty free
///     pool, cluster-wide and per rack, so placement walks only
///     machines that could possibly grant;
///   * `grant_sites_` — every machine holding units of a (app, slot),
///     so preemption victim scans, app teardown and grant introspection
///     are proportional to actual grants, not cluster size;
///   * per-machine free epochs + a scheduler world epoch — versioning
///     for the negative-FitCount cache and for skipping scheduling
///     passes that provably cannot grant;
///   * `dirty_machines_` — machines whose free pool grew without an
///     immediate pass, flushed by the batch teardown paths.
///
/// The semantics (which demand wins which machine, in which order
/// results are emitted) are specified by the reference oracle in
/// reference_scheduler.h; tests/scheduler_differential_test.cc replays
/// randomized operation streams through both and demands identical
/// output at every step.
struct SchedulerOptions {
  bool enable_quota = true;
  /// Two-level preemption (priority within group, then quota across
  /// groups, §3.4).
  bool enable_preemption = true;
  /// Ablation switch: when false, machine/rack hints are flattened to
  /// cluster level (a single global queue, YARN-1.0 style).
  bool locality_tree = true;
  /// Cap on candidates examined per scheduling pass on one machine;
  /// 0 = unlimited. Guards worst-case latency under adversarial queues.
  size_t max_candidates_per_pass = 0;
  /// Starvation guard (paper §7 future work): a demand waiting longer
  /// than this gets its effective priority bumped by one on every
  /// AgeWaitingDemands sweep. 0 disables aging.
  double starvation_age_after = 0;
  /// Cap on the aging boost above the declared priority.
  Priority starvation_max_boost = 3;
};

class Scheduler {
 public:
  using Options = SchedulerOptions;

  explicit Scheduler(const cluster::ClusterTopology* topology,
                     Options options = {});

  // --- tenant administration ------------------------------------------

  /// Legacy flat entry point: creates a root-level tenant node. Kept
  /// name-compatible with the flat QuotaManager era; exactly equivalent
  /// to CreateTenantNode with a single-segment path and defaults.
  Status CreateQuotaGroup(const std::string& name,
                          const cluster::ResourceVector& quota);

  /// Creates (or binds) a node in the fair-share tree. Multi-segment
  /// paths, non-default weights and preemption budgets switch the tree
  /// into hierarchical mode (see FairShareTree::hierarchical()).
  Status CreateTenantNode(const std::string& path,
                          const cluster::ResourceVector& guarantee,
                          double weight = 1.0,
                          int64_t preemption_budget = -1);

  /// Materializes an unbounded tenant leaf (weight only, no guarantee)
  /// — the master's auto-vivify path for hierarchical submissions.
  Status EnsureTenantLeaf(const std::string& path, double weight = 1.0);

  // --- application lifecycle ------------------------------------------

  /// Registers an application; `tenant_path` may be empty when quota is
  /// disabled or unmanaged. Flat group names are root-level paths.
  Status RegisterApp(AppId app, const std::string& tenant_path = "");

  /// Removes the application: all waiting demand disappears and all its
  /// grants are revoked (reported via `result`), then the freed machines
  /// are rescheduled.
  Status UnregisterApp(AppId app, SchedulingResult* result);

  bool HasApp(AppId app) const { return apps_.count(app) > 0; }

  // --- the incremental request path (§3.1, §3.2) -----------------------

  /// Applies an incremental resource request and immediately attempts
  /// placement. Assignments (and any preemption revocations) are
  /// appended to `result`.
  Status ApplyRequest(const ResourceRequest& request,
                      SchedulingResult* result);

  /// Application returns `count` granted units of `slot` on `machine`
  /// (workers finished). The freed resources are immediately offered to
  /// waiting applications (the Figure 3 return→assign cycle).
  Status Release(AppId app, uint32_t slot_id, MachineId machine,
                 int64_t count, SchedulingResult* result,
                 RevocationReason reason = RevocationReason::kAppRelease);

  // --- failover support (§4.3.1) ----------------------------------------

  /// Re-installs a grant reported by a FuxiAgent during FuxiMaster
  /// failover, without going through the waiting queues. The new master
  /// collects these *soft states* from agents instead of checkpointing
  /// them; existing processes keep running untouched. Fails when the
  /// reported grant does not fit the machine's free pool (conflicting
  /// reports).
  Status RestoreGrant(AppId app, const ScheduleUnitDef& def,
                      MachineId machine, int64_t count);

  // --- machine lifecycle (node up/down, capacity changes) --------------

  /// Marks a machine offline: every grant on it is revoked with
  /// kMachineDown. Its capacity leaves the free pool.
  void SetMachineOffline(MachineId machine, SchedulingResult* result);

  /// Brings a machine back online with its full capacity and (unless
  /// `run_pass` is false — e.g. during failover, before restored grants
  /// are re-installed) runs a scheduling pass over it.
  void SetMachineOnline(MachineId machine, SchedulingResult* result,
                        bool run_pass = true);

  /// Explicitly offers a machine's free resources to the waiting queues
  /// (used after failover grant restoration completes).
  void RunSchedulePass(MachineId machine, SchedulingResult* result);

  /// Changes total capacity (e.g. virtual-resource reconfiguration,
  /// §3.2.1). Shrinking below current usage revokes grants (picking the
  /// newest first) until usage fits.
  void SetMachineCapacity(MachineId machine,
                          const cluster::ResourceVector& capacity,
                          SchedulingResult* result);

  // --- introspection ----------------------------------------------------

  const MachineState& machine_state(MachineId machine) const;
  const LocalityTree& locality_tree() const { return tree_; }
  const FairShareTree& fairshare() const { return fairshare_; }

  /// Total capacity over online machines (FM_total in Figure 10).
  cluster::ResourceVector TotalCapacity() const;
  /// Total currently granted (FM_planned in Figure 10). Maintained
  /// incrementally; O(1).
  cluster::ResourceVector TotalGranted() const { return total_granted_; }
  /// Granted to one application (AM_obtained component).
  cluster::ResourceVector GrantedTo(AppId app) const;

  /// Units of (app, slot) currently granted on `machine`.
  int64_t GrantCount(AppId app, uint32_t slot_id, MachineId machine) const;

  /// Every grant held by `app`, in (slot, machine) order.
  struct GrantEntry {
    uint32_t slot_id;
    MachineId machine;
    int64_t count;
  };
  std::vector<GrantEntry> GrantsOf(AppId app) const;

  uint64_t scheduling_passes() const { return scheduling_passes_; }
  /// Passes answered from the epoch check without walking the queues.
  uint64_t passes_skipped() const { return passes_skipped_; }

  /// Starvation-aging sweep (invoked from FuxiMaster's roll-up tick,
  /// §3.4's batched non-urgent work): demands waiting longer than
  /// `starvation_age_after` get an effective-priority bump so they stop
  /// losing every tie. Returns how many demands were boosted.
  size_t AgeWaitingDemands(double now);

  /// Grants produced by the last aging sweep, to be dispatched by the
  /// caller.
  std::vector<SchedulingResult> TakeAgedResults();

  /// Validates cross-structure consistency (free+granted == capacity,
  /// quota usage matches grants, tree invariants, and that every
  /// incremental index lists exactly what the machine table implies).
  /// Every call checks everything; in steady state a call allocates
  /// nothing. The chaos InvariantMonitor runs it on every heavy sweep.
  bool CheckInvariants() const;

  /// Wires the metrics registry in (null detaches). Grants are counted
  /// by the locality tier that satisfied them — the Figure 5 hit-rate
  /// breakdown — plus preemption takebacks as their own bucket.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// Wires the decision-audit log in (null detaches). The audit layer
  /// is strictly observational: with the log attached or detached the
  /// scheduler emits byte-for-byte identical SchedulingResult sequences
  /// — the decision-neutrality contract, enforced by the differential
  /// suite. Decision records are assembled only while a log is attached.
  void set_audit(obs::AuditLog* audit) {
    audit_ = audit;
    if (planner_ != nullptr) planner_->set_audit(audit);
  }

  // --- time-aware placement (fuxi::planner, DESIGN.md §12) --------------

  /// Runs one planning pass at virtual time `now`: converts due
  /// reservations into grants (appended to `result`), expires missed
  /// deadlines, plans new reservations/gangs, maintains the EASY
  /// backfill-head reservation. No-op until some demand has carried
  /// planning hints — legacy traffic never constructs the planner, so
  /// default-build behaviour is bit-for-bit the pre-planner scheduler.
  void PlannerTick(double now, SchedulingResult* result);

  /// True once the planner has been (lazily) constructed.
  bool planner_active() const { return planner_ != nullptr; }
  const planner::ClusterPlanner* planner() const { return planner_.get(); }

  /// Chaos invariants (InvariantMonitor): the future-capacity book
  /// never promises what a machine cannot deliver, and an unstarted
  /// gang holds zero grants. Both trivially true without a planner.
  bool PlannerOvercommitOk() const;
  bool PlannerGangAtomicityOk() const;

 private:
  struct AppState {
    AppId app;
    /// Slots this app has defined, for full teardown.
    std::set<uint32_t> slots;
  };

  /// Applies one unit delta (demand bookkeeping only, no placement).
  Status ApplyUnitDelta(AppId app, const UnitRequestDelta& delta,
                        std::vector<PendingDemand*>* touched);

  /// Attempts to place outstanding units of `demand`, preferring its
  /// machine hints, then rack hints, then any machine (round-robin for
  /// load balance). Appends grants to `result`. When auditing, commits
  /// one kPlace DecisionRecord covering every candidate examined.
  void PlaceDemand(PendingDemand* demand, SchedulingResult* result);

  /// The walk body of PlaceDemand. `rec` is the decision record under
  /// assembly, or null when auditing is off/detached — every recording
  /// site is guarded so the null path is the exact pre-audit code.
  void PlaceDemandWalk(PendingDemand* demand, SchedulingResult* result,
                       obs::DecisionRecord* rec);

  /// Offers the free resources of `machine` to the waiting queues
  /// (locality-tree pass). Appends grants to `result`.
  void SchedulePass(MachineId machine, SchedulingResult* result);

  /// Runs SchedulePass over every machine in `dirty_machines_` (in
  /// ascending id order) — machines whose free pool grew without an
  /// immediate re-offer, batched by the teardown paths.
  void FlushDirtyPasses(SchedulingResult* result);

  /// Grants `count` units of `demand` on `machine`: updates free pool,
  /// grant table, quota usage, waiting totals, and the locality tree.
  void CommitGrant(PendingDemand* demand, MachineId machine, int64_t count,
                   SchedulingResult* result);

  /// Revokes up to `count` units of (key) on `machine`; returns revoked.
  int64_t RevokeGrant(const SlotKey& key, MachineId machine, int64_t count,
                      RevocationReason reason, SchedulingResult* result);

  /// Two-level preemption for a still-unsatisfied demand (§3.4).
  void TryPreempt(PendingDemand* demand, SchedulingResult* result);

  /// How many units of `demand` machine `m` could host right now
  /// (respecting quota admission and fit), capped by `limit`. Updates
  /// the machine's negative-fit cache. When `why` is non-null it is set
  /// to the rejection reason on a zero return (kNone on a grant).
  int64_t FitCount(const PendingDemand& demand, MachineState& state,
                   int64_t limit, obs::RejectReason* why = nullptr);

  // --- planner plumbing (the planner is built lazily, so legacy
  // traffic never takes a planner_ != nullptr branch) ------------------

  static planner::PlanKey PlanKeyOf(const SlotKey& key) {
    return planner::PlanKey{key.app.value(), key.slot_id};
  }

  /// Constructs the planner on first planning-hinted demand.
  void EnsurePlanner();

  /// True while the planner forbids instantaneous placement of this
  /// demand (unstarted gang member / unconverted reservation).
  bool PlannerHolds(const PendingDemand& demand) const {
    return planner_ != nullptr && demand.plan.Any() &&
           planner_->Holds(PlanKeyOf(demand.key));
  }

  /// HostHooks bodies: the planner's only write path into grant state.
  int64_t PlannerCommit(const planner::PlanKey& key, int64_t machine,
                        int64_t count);
  void PlannerExpire(const planner::PlanKey& key);
  planner::DemandInfo PlannerDemandInfo(const SlotKey& key) const;

  /// Re-derives `machine`'s membership in the free indexes from its
  /// state and bumps the fit/pass epochs. Must be called after every
  /// mutation of a machine's free pool or online flag.
  void SyncFreeIndex(MachineId machine, MachineState& state);

  /// Records a world-state mutation (demand, quota, machine or grant
  /// change): invalidates the per-machine pass-skip epoch.
  void NoteMutation() { ++world_epoch_; }

  void NoteGrantTier(LocalityLevel level, int64_t count) {
    if (tier_machine_counter_ == nullptr) return;
    switch (level) {
      case LocalityLevel::kMachine:
        tier_machine_counter_->Add(static_cast<uint64_t>(count));
        break;
      case LocalityLevel::kRack:
        tier_rack_counter_->Add(static_cast<uint64_t>(count));
        break;
      case LocalityLevel::kCluster:
        tier_cluster_counter_->Add(static_cast<uint64_t>(count));
        break;
    }
  }

  MachineState& mutable_machine_state(MachineId machine);

  const cluster::ClusterTopology* topology_;
  Options options_;
  LocalityTree tree_;
  FairShareTree fairshare_;
  std::vector<MachineState> machines_;
  /// Machines with any free resources, for cluster-level placement.
  std::set<MachineId> free_machines_;
  /// The same machines partitioned by rack, for rack-hint placement.
  std::vector<std::set<MachineId>> rack_free_;
  /// Machines holding units of each (app, slot): the preemption victim
  /// index and the per-app grant iterator.
  std::map<SlotKey, std::set<MachineId>> grant_sites_;
  /// Machines whose free pool grew without an immediate pass.
  std::set<MachineId> dirty_machines_;
  /// Running total of granted resources (== FM_planned).
  cluster::ResourceVector total_granted_;
  /// Bumped on every state mutation; per-machine pass-skip versioning.
  uint64_t world_epoch_ = 1;
  /// Round-robin cursor over free_machines_ for load balancing.
  MachineId rr_cursor_;
  std::unordered_map<AppId, AppState> apps_;
  uint64_t scheduling_passes_ = 0;
  uint64_t passes_skipped_ = 0;
  /// Virtual "now" for waiting_since stamps, fed by AgeWaitingDemands.
  double now_hint_ = 0;
  std::vector<SchedulingResult> aged_results_;

  obs::Counter* tier_machine_counter_ = nullptr;
  obs::Counter* tier_rack_counter_ = nullptr;
  obs::Counter* tier_cluster_counter_ = nullptr;
  obs::Counter* preempt_units_counter_ = nullptr;
  obs::Counter* passes_counter_ = nullptr;
  obs::Counter* passes_skipped_counter_ = nullptr;
  obs::Counter* candidates_counter_ = nullptr;
  obs::Counter* negfit_hit_counter_ = nullptr;
  obs::Counter* negfit_miss_counter_ = nullptr;
  Histogram* dirty_drain_hist_ = nullptr;
  obs::Gauge* grant_sites_gauge_ = nullptr;
  obs::Gauge* fairshare_nodes_gauge_ = nullptr;
  obs::Counter* fairshare_clamp_counter_ = nullptr;
  obs::Counter* fairshare_budget_denied_counter_ = nullptr;

  obs::AuditLog* audit_ = nullptr;

  /// The time-aware placement layer; null until a demand carries
  /// planning hints.
  std::unique_ptr<planner::ClusterPlanner> planner_;
  /// Where planner-committed grants land while a Tick is running.
  SchedulingResult* planner_result_ = nullptr;
  /// Retained so a lazily-built planner can wire its instruments.
  obs::MetricsRegistry* metrics_registry_ = nullptr;

  /// CheckInvariants' per-app tallies, kept so an audit reuses their
  /// storage instead of allocating.
  mutable std::vector<FairShareTree::AppAmount> audit_usage_;
  mutable std::vector<FairShareTree::AppAmount> audit_waiting_;

  /// The audit-equivalence test's window into the indexes.
  friend struct SchedulerAuditPeer;
};

}  // namespace fuxi::resource

#endif  // FUXI_RESOURCE_SCHEDULER_H_
