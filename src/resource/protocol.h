#ifndef FUXI_RESOURCE_PROTOCOL_H_
#define FUXI_RESOURCE_PROTOCOL_H_

#include <string>
#include <vector>

#include "resource/delta_channel.h"
#include "resource/request.h"

namespace fuxi::resource {

/// Absolute desired state for one ScheduleUnit, carried by the periodic
/// full-state sync (paper §3.1's "safety measurement": peers exchange
/// full state to repair any inconsistency the deltas left behind).
struct SlotAbsoluteState {
  ScheduleUnitDef def;
  int64_t total_count = 0;                ///< absolute outstanding ask
  std::vector<LocalityHint> hints;        ///< absolute preferred counts
  std::vector<std::string> avoid;         ///< absolute avoid list
  PlanningHints plan;                     ///< absolute planner metadata
};

/// Application master returns `count` granted units (paper: "only the
/// unit number needs to be sent").
struct ReleaseDelta {
  uint32_t slot_id = 0;
  MachineId machine;
  int64_t count = 0;
};

/// Absolute granted count for one (slot, machine), used in full syncs.
struct GrantAbsolute {
  uint32_t slot_id = 0;
  MachineId machine;
  int64_t count = 0;
};

/// Application-master → FuxiMaster request message. When stamped
/// `is_full`, `full_slots` + `held_grants` hold the authoritative
/// absolute state (outstanding asks and the grants the application
/// believes it holds) and the delta fields are ignored; otherwise
/// `delta`/`releases` carry incremental changes.
struct RequestMessage {
  ResourceRequest delta;
  std::vector<ReleaseDelta> releases;
  std::vector<SlotAbsoluteState> full_slots;
  std::vector<GrantAbsolute> held_grants;
};

/// One incremental grant change from FuxiMaster to an application
/// master: positive = newly granted units, negative = revoked.
struct GrantDelta {
  uint32_t slot_id = 0;
  MachineId machine;
  int64_t delta = 0;
  RevocationReason reason = RevocationReason::kAppRelease;
};

/// FuxiMaster → application-master grant message (delta or full).
struct GrantMessage {
  std::vector<GrantDelta> deltas;
  std::vector<GrantAbsolute> full_grants;
};

using StampedRequest = Stamped<RequestMessage>;
using StampedGrant = Stamped<GrantMessage>;

/// Request for the peer to re-send its full state (emitted when a
/// DeltaReceiver reports kNeedResync).
struct ResyncRequest {
  AppId app;
};

// ---------------------------------------------------------------------
// Wire layouts (fuxi::wire, DESIGN.md §10). The stamped wrappers are the
// protocol's unit of transmission, so they carry registry tags; their
// fields are Stamped's list (delta_channel.h).
// ---------------------------------------------------------------------

FUXI_WIRE_FIELDS(SlotAbsoluteState, m.def, m.total_count, m.hints, m.avoid,
                 m.plan)
FUXI_WIRE_FIELDS(ReleaseDelta, m.slot_id, m.machine, m.count)
FUXI_WIRE_FIELDS(GrantAbsolute, m.slot_id, m.machine, m.count)
FUXI_WIRE_FIELDS(RequestMessage, m.delta, m.releases, m.full_slots,
                 m.held_grants)
FUXI_WIRE_FIELDS(GrantDelta, m.slot_id, m.machine, m.delta, m.reason)
FUXI_WIRE_FIELDS(GrantMessage, m.deltas, m.full_grants)

// v2: UnitRequestDelta grew has_plan + PlanningHints and
// SlotAbsoluteState grew a trailing PlanningHints (fuxi::planner).
FUXI_WIRE_MESSAGE(StampedRequest, 2)
FUXI_WIRE_MESSAGE(StampedGrant, 1)
FUXI_WIRE_MESSAGE(ResyncRequest, 1, m.app)

}  // namespace fuxi::resource

#endif  // FUXI_RESOURCE_PROTOCOL_H_
