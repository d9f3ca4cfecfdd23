#ifndef FUXI_SHARD_MESSAGES_H_
#define FUXI_SHARD_MESSAGES_H_

#include <string>
#include <vector>

#include "cluster/resource_vector.h"
#include "common/ids.h"
#include "common/json.h"
#include "wire/wire.h"

namespace fuxi::shard {

// ---------------------------------------------------------------------
// Shard directory (replicated lookup service).
//
// Shard primaries push master::ShardStatusRpc reports at the directory
// replicas (see master/messages.h — the push is master behaviour). The
// router reads the resulting table with the lookup RPCs below, failing
// over between replicas when one stops answering.
// ---------------------------------------------------------------------

/// One shard's row in the directory table.
struct ShardEntry {
  int32_t shard = 0;
  NodeId primary;            ///< invalid when no report was ever seen
  uint64_t generation = 0;   ///< fences deposed primaries' stale reports
  int64_t machines_online = 0;
  cluster::ResourceVector total;
  cluster::ResourceVector granted;
  double updated_at = -1;    ///< virtual time the replica stored the report
};

/// Router → directory replica: "send me the whole table".
struct ShardLookupRpc {
  NodeId reply_to;
  uint64_t request_id = 0;
};

/// Directory replica → router: the table snapshot.
struct ShardDirectoryReplyRpc {
  uint64_t request_id = 0;
  std::vector<ShardEntry> entries;
};

// ---------------------------------------------------------------------
// Submission routing. Clients submit through the router instead of a
// single master; the router picks the app's home shard, spills to a
// healthy shard when the home is saturated or mid-failover, and retries
// with jittered exponential backoff until some shard accepts.
// ---------------------------------------------------------------------

/// Client → router: application submission (the federated analogue of
/// master::SubmitAppRpc).
///
/// v2: `quota_group` became the hierarchical `tenant_path` plus a
/// fair-share `weight`, mirroring SubmitAppRpc. v1 frames still decode
/// (old group name → tenant_path, weight defaults to 1.0).
struct RouteSubmitRpc {
  AppId app;
  std::string tenant_path;
  Json description;
  NodeId client;  ///< where the RouteReplyRpc goes
  double weight = 1.0;
};

/// Router → client: which shard accepted the app. The client binds its
/// application master to that shard's election lock.
struct RouteReplyRpc {
  AppId app;
  int32_t shard = -1;
  bool accepted = false;
  std::string error;
};

// ---------------------------------------------------------------------
// Wire layouts (fuxi::wire, DESIGN.md §10).
// ---------------------------------------------------------------------

FUXI_WIRE_FIELDS(ShardEntry, m.shard, m.primary, m.generation,
                 m.machines_online, m.total, m.granted, m.updated_at)
FUXI_WIRE_MESSAGE(ShardLookupRpc, 1, m.reply_to, m.request_id)
FUXI_WIRE_MESSAGE(ShardDirectoryReplyRpc, 1, m.request_id, m.entries)
// v2: quota_group became tenant_path + weight. v1 frames still decode, so
// the codec is written by hand (messages_wire.cc).
FUXI_WIRE_MESSAGE(RouteSubmitRpc, wire::Versions(2, 1))
void WireEncode(wire::Writer& w, const RouteSubmitRpc& m);
Status WireDecode(wire::Reader& r, RouteSubmitRpc& m);
FUXI_WIRE_MESSAGE(RouteReplyRpc, 1, m.app, m.shard, m.accepted, m.error)

}  // namespace fuxi::shard

#endif  // FUXI_SHARD_MESSAGES_H_
