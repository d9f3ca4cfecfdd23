#ifndef FUXI_RESOURCE_REQUEST_H_
#define FUXI_RESOURCE_REQUEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/resource_vector.h"
#include "common/ids.h"
#include "common/json.h"
#include "wire/wire.h"

namespace fuxi::resource {

/// Priority of a ScheduleUnit. Larger values are more urgent (the paper
/// prints priorities like 1000; only the ordering matters).
using Priority = int32_t;

/// The three levels of the locality tree (paper §3.2.2).
enum class LocalityLevel { kMachine, kRack, kCluster };
constexpr LocalityLevel WireEnumMax(LocalityLevel) {
  return LocalityLevel::kCluster;
}

std::string_view LocalityLevelName(LocalityLevel level);

/// One locality preference inside a resource request: "count units on
/// this machine/rack" (Figure 4's Locality_hints). Counts are deltas in
/// incremental updates and absolutes in full-state syncs.
struct LocalityHint {
  LocalityLevel level = LocalityLevel::kCluster;
  /// Hostname or rack name; empty for cluster level.
  std::string value;
  int64_t count = 0;
};

/// Unit-size description of a resource ask (paper §3.2.2): everything
/// an application requests is an integer number of these units. An
/// application may define several units (different stages have
/// different shapes) under distinct slot ids.
struct ScheduleUnitDef {
  uint32_t slot_id = 0;
  Priority priority = 0;
  cluster::ResourceVector resources;  ///< size of ONE unit

  Json ToJson() const;
  static Result<ScheduleUnitDef> FromJson(const Json& json);
};

/// Time-aware placement metadata for a slot (fuxi::planner, DESIGN.md
/// §12). All fields optional; a demand with none set is scheduled by
/// the instantaneous pass exactly as before.
struct PlanningHints {
  /// Expected lifetime of one granted unit in virtual seconds; 0 =
  /// unknown (the planner then treats grants as never releasing).
  double estimated_seconds = 0;
  /// Ask for an advance reservation: hold the demand until a window of
  /// `estimated_seconds` starting at or after `reserve_start` is
  /// booked, then start all units at once.
  bool reservation = false;
  double reserve_start = 0;
  /// Latest acceptable finish (0 = none). A reservation whose earliest
  /// window would end past the deadline is expired, not queued forever.
  double deadline = 0;
  /// Nonzero: this slot is one member of an all-or-nothing gang; the
  /// planner starts all `gang_size` member slots atomically or none.
  uint64_t gang_id = 0;
  uint32_t gang_size = 0;

  bool Any() const {
    return estimated_seconds != 0 || reservation || reserve_start != 0 ||
           deadline != 0 || gang_id != 0 || gang_size != 0;
  }
  friend bool operator==(const PlanningHints& a, const PlanningHints& b) {
    return a.estimated_seconds == b.estimated_seconds &&
           a.reservation == b.reservation &&
           a.reserve_start == b.reserve_start && a.deadline == b.deadline &&
           a.gang_id == b.gang_id && a.gang_size == b.gang_size;
  }
};

/// An incremental change to one ScheduleUnit's demand. All counts are
/// signed deltas; negative values shrink the outstanding ask. The first
/// update for a slot must carry `def`.
struct UnitRequestDelta {
  uint32_t slot_id = 0;
  /// Unit definition; only needed on first submission for the slot.
  bool has_def = false;
  ScheduleUnitDef def;

  /// Change to the total number of desired units (the cluster-level
  /// budget; Figure 4's max_slot_count).
  int64_t total_count_delta = 0;

  /// Per-machine/rack preferred counts (deltas).
  std::vector<LocalityHint> hints;

  /// Machines to add to / remove from the avoid list (bad nodes the
  /// application has blacklisted).
  std::vector<std::string> avoid_add;
  std::vector<std::string> avoid_remove;

  /// Planner metadata (absolute, not a delta); carried when has_plan.
  bool has_plan = false;
  PlanningHints plan;
};

/// A full resource-request message from an application master. In
/// incremental mode it carries only changed slots; in full-state mode it
/// carries every slot with absolute counts (the periodic safety sync of
/// §3.1).
struct ResourceRequest {
  AppId app;
  std::vector<UnitRequestDelta> units;
};

/// Why a grant was taken away.
enum class RevocationReason {
  kAppRelease,     ///< the application returned it voluntarily
  kMachineDown,    ///< node died or was blacklisted
  kPreemptQuota,   ///< quota rebalancing preemption
  kPreemptPriority,///< higher-priority application preemption
  kCapacityShrink, ///< machine capacity was reduced
  kReconcile,      ///< master-side full-state reconciliation correction
};
constexpr RevocationReason WireEnumMax(RevocationReason) {
  return RevocationReason::kReconcile;
}

std::string_view RevocationReasonName(RevocationReason reason);

/// One positive scheduling decision: `count` units of (app, slot) now
/// run on `machine`. Deltas from FuxiMaster to both the application
/// master and the FuxiAgent are streams of these.
struct Assignment {
  AppId app;
  uint32_t slot_id = 0;
  MachineId machine;
  int64_t count = 0;
};

/// One negative scheduling decision (grant revoked).
struct Revocation {
  AppId app;
  uint32_t slot_id = 0;
  MachineId machine;
  int64_t count = 0;
  RevocationReason reason = RevocationReason::kAppRelease;
};

/// Output of one scheduling pass: what was assigned and what was
/// revoked. Delivered incrementally to the interested parties.
struct SchedulingResult {
  std::vector<Assignment> assignments;
  std::vector<Revocation> revocations;

  bool empty() const { return assignments.empty() && revocations.empty(); }
  void Clear() {
    assignments.clear();
    revocations.clear();
  }
};

// Wire layouts (fuxi::wire, DESIGN.md §10) of the nested structs; the
// framed top-level messages embedding them live in protocol.h and
// master/messages.h.
FUXI_WIRE_FIELDS(LocalityHint, m.level, m.value, m.count)
FUXI_WIRE_FIELDS(ScheduleUnitDef, m.slot_id, m.priority, m.resources)
FUXI_WIRE_FIELDS(PlanningHints, m.estimated_seconds, m.reservation,
                 m.reserve_start, m.deadline, m.gang_id, m.gang_size)
// `def` and `plan` are present only when their has_ flag is set, so this
// codec is written by hand (protocol.cc).
void WireEncode(wire::Writer& w, const UnitRequestDelta& m);
Status WireDecode(wire::Reader& r, UnitRequestDelta& m);
FUXI_WIRE_FIELDS(ResourceRequest, m.app, m.units)

}  // namespace fuxi::resource

#endif  // FUXI_RESOURCE_REQUEST_H_
