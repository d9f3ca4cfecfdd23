#ifndef FUXI_PLANNER_PLANNER_H_
#define FUXI_PLANNER_PLANNER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/resource_vector.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "planner/timeline.h"

namespace fuxi::planner {

/// (app, slot) pair — the planner's own key type so src/planner does
/// not depend on resource/ headers (the scheduler embeds the planner,
/// which would otherwise be a header cycle).
struct PlanKey {
  int64_t app = -1;
  uint32_t slot = 0;

  friend bool operator==(const PlanKey& a, const PlanKey& b) {
    return a.app == b.app && a.slot == b.slot;
  }
  friend bool operator<(const PlanKey& a, const PlanKey& b) {
    if (a.app != b.app) return a.app < b.app;
    return a.slot < b.slot;
  }
};

/// Snapshot of one demand, pulled from the host scheduler on use.
struct DemandInfo {
  bool exists = false;
  cluster::ResourceVector unit;
  int64_t remaining = 0;
  int32_t priority = 0;
  uint64_t seq = 0;  ///< FIFO tiebreak (smaller = older)
  double estimate = 0;       ///< expected grant lifetime, 0 = unknown
  double reserve_start = 0;  ///< advance reservations: earliest start
  double deadline = 0;       ///< advance reservations: must finish by
  uint64_t gang_id = 0;      ///< nonzero: all-or-nothing member
  uint32_t gang_size = 0;    ///< declared member count of the gang
  bool reservation = false;  ///< wants an advance reservation
};

struct MachineView {
  bool online = false;
  cluster::ResourceVector free;
};

/// The planner never touches scheduler structures directly: the host
/// wires these closures in, and every grant the planner decides goes
/// back through `commit` — the scheduler stays the single writer of
/// grant state.
struct HostHooks {
  /// Live view of one machine (online flag + free pool).
  std::function<MachineView(int64_t)> machine;
  /// Commit up to `count` units of `key` on `machine` through the
  /// normal CommitGrant path; returns units actually granted.
  std::function<int64_t(const PlanKey&, int64_t, int64_t)> commit;
  /// Cancel every remaining unit of `key` (deadline expiry).
  std::function<void(const PlanKey&)> expire;
  /// Demand snapshot; exists == false when the demand is gone.
  std::function<DemandInfo(const PlanKey&)> demand;
  /// Every demand carrying planning metadata, in key order.
  std::function<std::vector<std::pair<PlanKey, DemandInfo>>()> all_demands;
};

/// One booked reservation: a future start promised to one demand (EASY
/// head / advance reservation) or to every member of a gang.
struct Reservation {
  uint64_t id = 0;
  double start = 0;
  double end = 0;
  double requested_at = 0;
  uint64_t gang_id = 0;     ///< 0 for single-demand reservations
  bool backfill_head = false;  ///< the EASY head-of-queue reservation
  /// Booked units per member demand per machine, in key order.
  struct Booking {
    int64_t machine = -1;
    int64_t count = 0;
  };
  std::map<PlanKey, std::vector<Booking>> bookings;
  /// Claim ids placed for this reservation: (machine, claim id).
  std::vector<std::pair<int64_t, uint64_t>> claims;
};

/// Time-aware placement over the scheduled-point timelines (DESIGN.md
/// §12): per-machine and per-rack-aggregate future-capacity books, and
/// on top of them EASY backfill, advance reservations with deadlines,
/// and all-or-nothing gang transactions. Deterministic by construction:
/// every container is ordered, ids come from a monotonic counter, and
/// all times are virtual. The scheduler builds one lazily, on the first
/// demand that carries a planning hint; traffic without hints never
/// constructs a planner.
class ClusterPlanner {
 public:
  ClusterPlanner(std::vector<cluster::ResourceVector> capacities,
                 std::vector<int64_t> rack_of, int64_t rack_count,
                 HostHooks hooks);

  void set_metrics(obs::MetricsRegistry* metrics);
  void set_audit(obs::AuditLog* audit) { audit_ = audit; }

  // --- demand lifecycle (driven by the scheduler) ---------------------

  /// Registers/updates a demand's planning metadata (gang membership,
  /// reservation intent). Idempotent. `already_granted` covers the
  /// failover path: when the scheduler restored grants for this key
  /// before the plan arrived (the AM resends its full state AFTER the
  /// Figure 7 grant restore), the gang demonstrably launched under the
  /// previous primary and its reservation already converted — neither
  /// may be re-held.
  void NoteDemand(const PlanKey& key, const DemandInfo& info,
                  bool already_granted = false);

  /// Demand disappeared (app teardown): its reservations and gang
  /// membership dissolve.
  void OnDemandGone(const PlanKey& key);

  /// Failover restore (Figure 7): an agent re-reported a grant for this
  /// key after the plan was already registered. The grant is proof the
  /// gang started / the reservation converted under the previous
  /// primary — same resolution as NoteDemand's `already_granted`, for
  /// the opposite arrival order.
  void OnGrantRestored(const PlanKey& key);

  /// True while the demand must NOT be placed by the instantaneous
  /// pass: unstarted gang members (atomicity) and unconverted
  /// advance-reservation demands (they start at their reserved time).
  bool Holds(const PlanKey& key) const;

  // --- grant mirror ---------------------------------------------------

  /// A grant with a lifetime estimate started: book its expected
  /// release as a running claim [now, now + estimate).
  void OnGrantCommitted(const PlanKey& key, int64_t machine, int64_t count,
                        const cluster::ResourceVector& unit, double estimate);

  /// Units of an estimated grant ended (release or revoke): drop their
  /// running claims, earliest-ending first.
  void OnGrantReleased(const PlanKey& key, int64_t machine, int64_t count);

  // --- machine lifecycle ----------------------------------------------

  void OnMachineOffline(int64_t machine);
  void SetMachineCapacity(int64_t machine,
                          const cluster::ResourceVector& capacity);

  // --- the backfill guard (called from Scheduler::FitCount) -----------

  /// True when `machine` carries reservation claims — the only case the
  /// backfill clamp can bind, so FitCount skips the math otherwise.
  bool HasReservationWindow(int64_t machine) const {
    return reserved_on_.count(machine) > 0;
  }

  /// EASY backfill rule: at most `want` units of `unit` may start now
  /// without delaying any reservation on `machine`. A demand with an
  /// estimate occupies [now, now + estimate); one without holds
  /// forever. Demand `key`'s own reservation never blocks it.
  int64_t ClampForBackfill(int64_t machine,
                           const cluster::ResourceVector& free,
                           const cluster::ResourceVector& unit,
                           double estimate, int64_t want,
                           const PlanKey& key);

  // --- the planning pass ----------------------------------------------

  /// One planning pass at virtual time `now`: prunes expired claims,
  /// converts due reservations into grants (via hooks.commit), expires
  /// deadline-missed reservations (via hooks.expire), re-plans
  /// reservations broken by machine loss, plans advance reservations
  /// and gang transactions for new demands, and maintains the single
  /// EASY head-of-queue reservation.
  void Tick(double now);

  // --- invariants (chaos monitor) -------------------------------------

  /// No timeline overcommit: on every online machine, at every
  /// scheduled point, booked load fits free-now + expected releases;
  /// offline machines hold no claims.
  bool CheckNoOvercommit() const;

  /// Gang atomicity: a gang that has not started holds zero grants on
  /// any member (granted_units resolves live grant counts).
  bool CheckGangAtomicity(
      const std::function<int64_t(const PlanKey&)>& granted_units) const;

  // --- introspection ----------------------------------------------------

  const std::map<uint64_t, Reservation>& reservations() const {
    return reservations_;
  }
  const Timeline& machine_timeline(int64_t machine) const {
    return timelines_[static_cast<size_t>(machine)];
  }
  const Timeline& rack_timeline(int64_t rack) const {
    return rack_timelines_[static_cast<size_t>(rack)];
  }
  size_t scheduled_points() const;
  bool GangStarted(uint64_t gang_id) const;
  uint64_t backfill_hits() const { return backfill_hits_n_; }
  uint64_t backfill_misses() const { return backfill_misses_n_; }
  uint64_t gang_aborts() const { return gang_aborts_n_; }
  double now() const { return now_; }

 private:
  struct Gang {
    uint32_t declared_size = 0;
    std::set<PlanKey> members;
    bool started = false;
    uint64_t reservation = 0;  ///< 0 = none booked yet
  };

  struct RunningClaim {
    uint64_t id = 0;
    int64_t count = 0;
    double start = 0;  ///< grant time; partial releases re-book with it
    double end = 0;
    cluster::ResourceVector unit;
  };

  /// Places a claim on a machine timeline and mirrors it into the
  /// machine's rack aggregate under the same id.
  uint64_t AddClaim(int64_t machine, double start, double end,
                    const cluster::ResourceVector& amount, uint64_t owner);
  void DropClaim(int64_t machine, uint64_t id);

  /// budget = free_now + running load: the pool future windows draw on.
  cluster::ResourceVector BudgetOf(int64_t machine) const;

  /// Units of `unit` available on `machine` over [t, t + duration).
  int64_t AvailableUnits(int64_t machine, double t, double duration,
                         const cluster::ResourceVector& unit,
                         uint64_t skip_owner) const;

  /// Earliest common start for `need` units of `unit` across the
  /// cluster; nullopt when no future point admits it. Uses the rack
  /// aggregates as a pre-filter: racks whose aggregate book shows no
  /// window at t are skipped wholesale.
  struct PlanSpot {
    double start = 0;
    std::vector<Reservation::Booking> bookings;
  };
  std::optional<PlanSpot> FindEarliest(double from, double duration,
                                       const cluster::ResourceVector& unit,
                                       int64_t need, uint64_t skip_owner);

  /// Candidate start times across all machine timelines (capped).
  std::vector<double> CandidateStarts(double from) const;

  void ReleaseReservation(uint64_t id);
  /// Books one reservation: claims on every booked machine (+ rack
  /// mirrors), indexes in res_of_key_ / gangs_. Member units are pulled
  /// from hooks_.demand at booking time.
  uint64_t Book(double start, double end, uint64_t gang_id,
                bool backfill_head, double requested_at,
                const std::map<PlanKey, std::vector<Reservation::Booking>>&
                    bookings);
  /// All-or-nothing allocation of every gang member over [t, t + d):
  /// fills `out` and returns true only when every member fully fits.
  bool TryPlaceGangAt(
      double t, double d,
      const std::vector<std::pair<PlanKey, DemandInfo>>& members,
      std::map<PlanKey, std::vector<Reservation::Booking>>* out) const;
  void ConvertDue(double now);
  void PlanReservations(double now);
  void PlanGangs(double now);
  void MaintainBackfillHead(double now);
  /// Drops newest-first reservation claims from any machine whose book
  /// no longer fits its budget (machine loss, capacity shrink, grant
  /// races); broken reservations are released and re-planned on the
  /// next section of the tick.
  void Reconcile(double now);
  bool TryStartGangNow(uint64_t gang_id, Gang& gang, double now);
  void ExpireDemand(const PlanKey& key, const std::string& why);
  void UpdatePointsGauge();
  /// Commits a kReserve decision record; `bookings` become candidates.
  /// Committed bookings (provisional=false) carry `granted` so
  /// `fuxi explain`'s grant-flow extraction sees planner-committed grants
  /// like any placement; provisional bookings (a reservation in the
  /// future) carry `remaining` instead, so they name their machines for
  /// the --timeline view without counting as grants.
  void Audit(obs::DecisionKind kind, const PlanKey& key,
             obs::RejectReason reason, int64_t units, int64_t machine,
             std::string note,
             const std::vector<Reservation::Booking>& bookings = {},
             bool provisional = false);

  std::vector<Timeline> timelines_;       ///< per machine
  std::vector<Timeline> rack_timelines_;  ///< per rack aggregate
  std::vector<int64_t> rack_of_;
  std::vector<std::vector<int64_t>> rack_members_;
  HostHooks hooks_;

  uint64_t next_claim_id_ = 1;
  uint64_t next_res_id_ = 1;
  double now_ = 0;

  std::map<uint64_t, Reservation> reservations_;
  std::map<PlanKey, uint64_t> res_of_key_;  ///< live reservation per demand
  std::map<uint64_t, Gang> gangs_;
  std::map<PlanKey, uint64_t> gang_of_key_;
  /// Advance-reservation demands whose reserved start has been reached
  /// (grants committed); they place normally from then on.
  std::set<PlanKey> converted_;
  /// Demands that asked for an advance reservation (Holds() until
  /// converted — they must not start before their reserved time).
  std::set<PlanKey> reservation_keys_;
  /// Reservation-claim count per machine (backfill-guard fast path).
  std::map<int64_t, size_t> reserved_on_;
  /// Running claims per (demand, machine), for release accounting.
  std::map<std::pair<PlanKey, int64_t>, std::vector<RunningClaim>> running_;
  /// Reservations broken by Reconcile, re-planned next tick section.
  std::set<PlanKey> needs_replan_;

  uint64_t backfill_hits_n_ = 0;
  uint64_t backfill_misses_n_ = 0;
  uint64_t gang_aborts_n_ = 0;

  obs::Gauge* points_gauge_ = nullptr;
  obs::Gauge* head_fence_wait_gauge_ = nullptr;
  obs::Counter* backfill_hit_counter_ = nullptr;
  obs::Counter* backfill_miss_counter_ = nullptr;
  obs::Counter* gang_abort_counter_ = nullptr;
  Histogram* reservation_wait_hist_ = nullptr;
  obs::AuditLog* audit_ = nullptr;
};

}  // namespace fuxi::planner

#endif  // FUXI_PLANNER_PLANNER_H_
