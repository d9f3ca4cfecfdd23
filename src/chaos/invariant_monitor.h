#ifndef FUXI_CHAOS_INVARIANT_MONITOR_H_
#define FUXI_CHAOS_INVARIANT_MONITOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/ids.h"
#include "runtime/sim_cluster.h"

namespace fuxi::chaos {

/// One observed safety violation: what broke, when, and enough detail
/// to start debugging from the campaign dump alone.
struct Violation {
  double time = 0;
  std::string invariant;
  std::string detail;
};

struct InvariantMonitorOptions {
  /// Minimum virtual time between heavy sweeps (full scheduler audit,
  /// per-machine capacity/process scans). Cheap checks (primary count,
  /// generation monotonicity) run after *every* simulator event.
  double heavy_check_interval = 0.25;
  /// Cross-component views are eventually consistent: a condition that
  /// involves more than one component (two masters both believing they
  /// are primary for an instant between lease expiry and renewal, an
  /// agent capacity table that a corrective delta has not reached yet)
  /// only counts as a violation when it persists beyond these windows.
  double split_brain_grace = 5.0;
  /// Must stay below the agent's periodic allocation-report repair
  /// interval, or real double-grant bugs get silently repaired before
  /// they count as sustained.
  double overcommit_grace = 6.0;
  /// Must exceed the agent/master reconcile period (allocation report
  /// every ~10 heartbeats): a process whose stop request was lost is
  /// legitimately reaped only on the next reconcile.
  double orphan_grace = 15.0;
  bool check_single_primary = true;
  bool check_generation_monotonic = true;
  bool check_scheduler_conservation = true;
  bool check_blacklist_cap = true;
  bool check_agent_overcommit = true;
  bool check_halted_machines = true;
  bool check_orphan_processes = true;
  /// Sharded clusters only: a machine must never be online in a shard
  /// scheduler other than its owner's (fault-domain isolation — a
  /// foreign shard granting on the machine double-books it globally
  /// even when every per-shard conservation audit passes).
  bool check_shard_isolation = true;
  /// fuxi::planner invariants (trivially true when no planner is live,
  /// so legacy campaigns and their golden digests are untouched):
  /// the scheduled-point timelines never admit overcommit at any future
  /// point, and an unstarted gang holds zero grants on any member.
  bool check_planner_overcommit = true;
  bool check_gang_atomicity = true;
  /// Stop recording after this many violations (one bad invariant can
  /// otherwise flood the report every heavy sweep).
  size_t max_violations = 64;
};

/// Hooks the cluster's simulator and checks cross-component safety
/// invariants continuously — after every event transition, not just at
/// test checkpoints — so a campaign failure points at the exact virtual
/// time the cluster first left its safe envelope:
///   * at most one elected primary per lease epoch, and the lock
///     holder's generation never regresses
///   * grant conservation inside the scheduler (free + granted ==
///     capacity, per-machine granted <= capacity, quota consistency)
///   * no agent capacity table exceeding its machine's physical
///     capacity (the observable symptom of a double-grant after a
///     failover that skipped the Figure 7 soft-state rebuild)
///   * the blacklist never exceeds blacklist_cap_fraction
///   * a halted machine hosts no live processes, and no process
///     outlives its application past the reconcile grace (orphans)
/// External liveness conditions (eventual job completion once faults
/// cease) are reported through Report() so everything lands in one
/// violation list.
class InvariantMonitor {
 public:
  /// Returns true while `app` is a live application (submitted, not
  /// finished). Installed by the campaign; without it the orphan check
  /// is skipped.
  using AppLiveness = std::function<bool(AppId)>;

  explicit InvariantMonitor(runtime::SimCluster* cluster,
                            InvariantMonitorOptions options = {});
  ~InvariantMonitor();

  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  /// Installs the post-event hook. The monitor owns the simulator's
  /// single observer slot until Stop().
  void Start();
  void Stop();

  void set_app_liveness(AppLiveness fn) { app_live_ = std::move(fn); }

  /// Runs a full sweep immediately (tests use this at checkpoints).
  void CheckNow();

  /// Records an externally detected violation (e.g. the campaign's
  /// eventual-completion deadline).
  void Report(const std::string& invariant, const std::string& detail);

  const std::vector<Violation>& violations() const { return violations_; }

  /// Chrome trace_event JSON dumped from the cluster's flight recorder
  /// the instant the FIRST violation fired — the causal message history
  /// leading up to the failure, before later traffic overwrites the
  /// ring. Empty while no violation has been recorded.
  const std::string& trace_dump() const { return trace_dump_; }

  /// Decision-audit JSON (obs::ExportAuditJson) dumped at the same
  /// instant as trace_dump: the scheduling decisions leading up to the
  /// first violation, ready for `fuxi explain`. Empty while no
  /// violation has been recorded.
  const std::string& audit_dump() const { return audit_dump_; }

  uint64_t heavy_checks_run() const { return checks_; }
  /// FNV-1a digest folded over every heavy sweep's observed state.
  /// Identical seeds must replay to identical digests.
  uint64_t state_hash() const { return hash_; }
  std::string Summary() const;

 private:
  /// Which sustained condition a tracker watches.
  enum class ConditionKind : uint8_t {
    kPrimaryWithoutLock,  ///< subject: master node
    kSinglePrimary,       ///< subject: shard, -1 when unsharded
    kAgentOvercommit,     ///< subject: machine
    kShardIsolation,      ///< subject: machine
    kOrphanProcesses,     ///< subject: machine, app: the finished app
  };

  /// A sustained condition's identity. Comparing it allocates nothing;
  /// its text (`orphan-processes:m3:app2000`, the violation's invariant
  /// name) is formatted only when the condition fires. Keys order by
  /// kind, then subject, so one machine's orphan trackers form one
  /// contiguous run of `pending_`.
  struct ConditionKey {
    ConditionKind kind;
    int64_t subject = 0;
    int64_t app = 0;

    bool operator<(const ConditionKey& other) const {
      return std::tie(kind, subject, app) <
             std::tie(other.kind, other.subject, other.app);
    }
  };
  static std::string KeyText(const ConditionKey& key);

  struct PendingCondition {
    double since = 0;
    bool fired = false;
  };

  void OnEvent(double now);
  void CheapChecks(double now);
  void HeavyChecks(double now);
  /// Holder of shard `k`'s election lock, via its lock entry resolved
  /// once it exists (no string-keyed lookup per event after that).
  NodeId ShardLockHolder(int k);
  /// Orphan sweep of one machine: one tracker per finished app that
  /// still has live processes there, and none for any other app.
  void CheckOrphans(double now, MachineId machine, bool primary_elected);
  /// Sustained-condition tracker: `bad` must hold continuously for
  /// `grace` before a violation fires; it re-arms once the condition
  /// clears. `detail()` returns the latest observation's text and runs
  /// only when the violation fires, so a healthy check builds no string.
  template <typename DetailFn>
  void Sustained(const ConditionKey& key, bool bad, double grace, double now,
                 const DetailFn& detail);
  void Record(double now, const std::string& invariant,
              const std::string& detail);
  void Fold(uint64_t value);
  void FoldTime(double value);

  runtime::SimCluster* cluster_;
  InvariantMonitorOptions options_;
  AppLiveness app_live_;
  bool installed_ = false;
  double last_heavy_ = -1e18;
  /// Last observed election generation, per shard (one entry in the
  /// unsharded cluster).
  std::vector<uint64_t> last_shard_generation_;
  /// Machines owned by each shard (cached from the topology).
  std::vector<int64_t> shard_machine_count_;
  /// Each shard's masters in cluster order, matched by election lease
  /// at construction (a master's lease name never changes).
  std::vector<std::vector<master::FuxiMaster*>> shard_masters_;
  /// Each shard's lock entry; null until the lock is first taken.
  std::vector<const coord::LockService::Lock*> shard_lock_entries_;
  /// Each shard's elected primary (or null) as of the current heavy
  /// sweep; every slot is rewritten at the start of a sweep.
  std::vector<master::FuxiMaster*> sweep_primaries_;
  uint64_t checks_ = 0;
  uint64_t hash_ = 1469598103934665603ull;  // FNV-1a offset basis
  std::map<ConditionKey, PendingCondition> pending_;
  std::vector<Violation> violations_;
  std::string trace_dump_;
  std::string audit_dump_;
};

}  // namespace fuxi::chaos

#endif  // FUXI_CHAOS_INVARIANT_MONITOR_H_
