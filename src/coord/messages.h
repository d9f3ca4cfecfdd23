#ifndef FUXI_COORD_MESSAGES_H_
#define FUXI_COORD_MESSAGES_H_

#include <string>

#include "common/ids.h"
#include "wire/wire.h"

namespace fuxi::coord {

/// The lease protocol of the lock service (lock_service.h) as wire
/// messages. Inside the simulator LockService is still a direct-call
/// service — elections run through its in-process API so failover timing
/// is unchanged — but this is the RPC surface a socket-backed lock server
/// will speak (ROADMAP north star), defined and codec-tested now so the
/// on-wire contract is pinned before any transport exists.

/// Candidate → lock server: TryAcquire(name, owner, lease).
struct LeaseAcquireRpc {
  std::string name;
  NodeId owner;
  double lease_seconds = 0;
  uint64_t request_id = 0;  ///< echoed in the reply
};

/// Holder → lock server: Renew(name, owner, lease).
struct LeaseRenewRpc {
  std::string name;
  NodeId owner;
  double lease_seconds = 0;
  uint64_t request_id = 0;
};

/// Holder → lock server: Release(name, owner).
struct LeaseReleaseRpc {
  std::string name;
  NodeId owner;
  uint64_t request_id = 0;
};

/// Lock server → client: outcome of any lease operation. `generation`
/// is the lock's acquire counter, so a client can discard replies from
/// before the most recent handover it observed.
struct LeaseReplyRpc {
  uint64_t request_id = 0;
  bool granted = false;
  NodeId holder;            ///< current holder (may be someone else)
  uint64_t generation = 0;
  std::string error;
};

// Wire layouts (fuxi::wire, DESIGN.md §10).
FUXI_WIRE_MESSAGE(LeaseAcquireRpc, 1, m.name, m.owner, m.lease_seconds,
                  m.request_id)
FUXI_WIRE_MESSAGE(LeaseRenewRpc, 1, m.name, m.owner, m.lease_seconds,
                  m.request_id)
FUXI_WIRE_MESSAGE(LeaseReleaseRpc, 1, m.name, m.owner, m.request_id)
FUXI_WIRE_MESSAGE(LeaseReplyRpc, 1, m.request_id, m.granted, m.holder,
                  m.generation, m.error)

}  // namespace fuxi::coord

#endif  // FUXI_COORD_MESSAGES_H_
