// fuxi::wire property tests (DESIGN.md §10).
//
// The wire format promises four things, and each gets a battery here:
//
//  1. Canonical round trips: for EVERY tagged message type, random
//     instances satisfy encode→decode→encode byte-identity, and the
//     counting writer agrees exactly with the serializing writer.
//  2. Stable bytes: seeded instances of every type encode to the frames
//     pinned in a checked-in digest table, so a layout change that the
//     encoder and decoder make together still fails a test.
//  3. Graceful rejection: any single flipped byte and any truncation of
//     a valid frame decodes to a kCorruption Status — never a crash,
//     never a silently wrong message.
//  4. No resource amplification: corrupted lengths and counts cannot
//     drive giant allocations or deep recursion.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "common/rng.h"
#include "coord/messages.h"
#include "job/messages.h"
#include "master/messages.h"
#include "resource/protocol.h"
#include "shard/messages.h"
#include "wire/wire.h"

namespace fuxi {
namespace {

// ------------------------------------------------ random value builders

int64_t RandI64(Rng& rng) {
  // Mostly small values (realistic), sometimes the full 64-bit range so
  // zigzag extremes and 10-byte varints get exercised.
  if (rng.Uniform(4) == 0) return static_cast<int64_t>(rng.Next());
  return static_cast<int64_t>(rng.Uniform(1000)) - 100;
}

uint64_t RandU64(Rng& rng) {
  if (rng.Uniform(4) == 0) return rng.Next();
  return rng.Uniform(1000);
}

uint32_t RandSlot(Rng& rng) { return static_cast<uint32_t>(rng.Uniform(16)); }

bool RandBool(Rng& rng) { return rng.Uniform(2) == 1; }

std::string RandStr(Rng& rng) {
  std::string s;
  size_t len = rng.Uniform(20);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.Uniform(256)));
  }
  return s;
}

/// Up to `max_count - 1` elements, each from `gen`.
template <typename Gen>
auto RandVec(Rng& rng, uint64_t max_count, Gen gen) {
  std::vector<decltype(gen(rng))> v;
  for (uint64_t i = rng.Uniform(max_count); i > 0; --i) v.push_back(gen(rng));
  return v;
}

Json RandJson(Rng& rng, int depth) {
  switch (depth > 0 ? rng.Uniform(6) : rng.Uniform(4)) {
    case 0: return Json();
    case 1: return Json(rng.Uniform(2) == 1);
    case 2: return Json(rng.NextDouble() * 1e6);
    case 3: return Json(RandStr(rng));
    case 4: {
      Json::Array a;
      for (uint64_t i = rng.Uniform(4); i > 0; --i) {
        a.push_back(RandJson(rng, depth - 1));
      }
      return Json(std::move(a));
    }
    default: {
      Json::Object o;
      for (uint64_t i = rng.Uniform(4); i > 0; --i) {
        o[RandStr(rng)] = RandJson(rng, depth - 1);
      }
      return Json(std::move(o));
    }
  }
}

cluster::ResourceVector RandRes(Rng& rng) {
  cluster::ResourceVector v(static_cast<int64_t>(rng.Uniform(2000)),
                            static_cast<int64_t>(rng.Uniform(1 << 20)));
  // Sometimes a higher dimension too, so the trailing-zero trim varies.
  if (rng.Uniform(4) == 0) {
    v.Set(static_cast<cluster::DimensionId>(
              rng.Uniform(cluster::kMaxDimensions)),
          RandI64(rng));
  }
  return v;
}

resource::LocalityHint RandHint(Rng& rng) {
  resource::LocalityHint h;
  h.level = static_cast<resource::LocalityLevel>(rng.Uniform(3));
  h.value = RandStr(rng);
  h.count = RandI64(rng);
  return h;
}

resource::ScheduleUnitDef RandDef(Rng& rng) {
  resource::ScheduleUnitDef d;
  d.slot_id = RandSlot(rng);
  d.priority = static_cast<int32_t>(rng.Uniform(5000)) - 100;
  d.resources = RandRes(rng);
  return d;
}

resource::PlanningHints RandPlan(Rng& rng) {
  resource::PlanningHints p;
  p.estimated_seconds = rng.NextDouble() * 100;
  p.reservation = RandBool(rng);
  p.reserve_start = rng.NextDouble() * 50;
  p.deadline = rng.NextDouble() * 500;
  p.gang_id = RandU64(rng);
  p.gang_size = static_cast<uint32_t>(rng.Uniform(8));
  return p;
}

resource::UnitRequestDelta RandUnit(Rng& rng) {
  resource::UnitRequestDelta u;
  u.slot_id = RandSlot(rng);
  u.has_def = RandBool(rng);
  if (u.has_def) u.def = RandDef(rng);
  u.total_count_delta = RandI64(rng);
  u.hints = RandVec(rng, 4, RandHint);
  u.avoid_add = RandVec(rng, 3, RandStr);
  u.avoid_remove = RandVec(rng, 3, RandStr);
  u.has_plan = RandBool(rng);
  if (u.has_plan) u.plan = RandPlan(rng);
  return u;
}

resource::SlotAbsoluteState RandSlotState(Rng& rng) {
  resource::SlotAbsoluteState slot;
  slot.def = RandDef(rng);
  slot.total_count = RandI64(rng);
  slot.hints = RandVec(rng, 3, RandHint);
  slot.avoid = RandVec(rng, 3, RandStr);
  slot.plan = RandPlan(rng);
  return slot;
}

resource::GrantAbsolute RandGrantAbsolute(Rng& rng) {
  return {RandSlot(rng), MachineId(RandI64(rng)), RandI64(rng)};
}

resource::RequestMessage RandRequestMessage(Rng& rng) {
  resource::RequestMessage m;
  m.delta.app = AppId(RandI64(rng));
  m.delta.units = RandVec(rng, 3, RandUnit);
  m.releases = RandVec(rng, 3, [](Rng& r) {
    return resource::ReleaseDelta{RandSlot(r), MachineId(RandI64(r)),
                                  RandI64(r)};
  });
  m.full_slots = RandVec(rng, 2, RandSlotState);
  m.held_grants = RandVec(rng, 4, RandGrantAbsolute);
  return m;
}

resource::GrantMessage RandGrantMessage(Rng& rng) {
  resource::GrantMessage m;
  m.deltas = RandVec(rng, 5, [](Rng& r) {
    return resource::GrantDelta{
        RandSlot(r), MachineId(RandI64(r)), RandI64(r),
        static_cast<resource::RevocationReason>(r.Uniform(6))};
  });
  m.full_grants = RandVec(rng, 4, RandGrantAbsolute);
  return m;
}

// ---------------------------- one generator per framed message type

resource::StampedRequest RandStampedRequest(Rng& rng) {
  return {RandU64(rng), RandU64(rng), RandBool(rng), RandRequestMessage(rng)};
}

resource::StampedGrant RandStampedGrant(Rng& rng) {
  return {RandU64(rng), RandU64(rng), RandBool(rng), RandGrantMessage(rng)};
}

resource::ResyncRequest RandResyncRequest(Rng& rng) {
  return {AppId(RandI64(rng))};
}

master::RequestRpc RandRequestRpc(Rng& rng) {
  return {AppId(RandI64(rng)), NodeId(RandI64(rng)), RandU64(rng),
          RandStampedRequest(rng)};
}

master::GrantRpc RandGrantRpc(Rng& rng) { return {RandStampedGrant(rng)}; }

master::ResyncRpc RandResyncRpc(Rng& rng) {
  return {AppId(RandI64(rng)), NodeId(RandI64(rng)), RandU64(rng)};
}

master::BadMachineReportRpc RandBadMachineReportRpc(Rng& rng) {
  return {AppId(RandI64(rng)), MachineId(RandI64(rng))};
}

master::AgentAllocation RandAllocation(Rng& rng) {
  master::AgentAllocation a;
  a.app = AppId(RandI64(rng));
  a.slot_id = RandSlot(rng);
  a.def = RandDef(rng);
  a.count = RandI64(rng);
  return a;
}

master::AgentHeartbeatRpc RandAgentHeartbeatRpc(Rng& rng) {
  master::AgentHeartbeatRpc hb;
  hb.machine = MachineId(RandI64(rng));
  hb.agent_node = NodeId(RandI64(rng));
  hb.seq = RandU64(rng);
  hb.health_score = rng.NextDouble();
  hb.capacity = RandRes(rng);
  hb.carries_allocations = RandBool(rng);
  hb.allocations = RandVec(rng, 4, RandAllocation);
  hb.need_capacity = RandBool(rng);
  return hb;
}

master::AgentCapacityRpc RandAgentCapacityRpc(Rng& rng) {
  master::AgentCapacityRpc capacity;
  capacity.master_generation = RandU64(rng);
  capacity.seq = RandU64(rng);
  capacity.full = RandBool(rng);
  capacity.entries = RandVec(rng, 4, [](Rng& r) {
    return master::AgentCapacityRpc::Entry{AppId(RandI64(r)), RandSlot(r),
                                           RandDef(r), RandI64(r)};
  });
  return capacity;
}

master::AgentHeartbeatAckRpc RandAgentHeartbeatAckRpc(Rng& rng) {
  return {RandU64(rng), RandBool(rng)};
}

master::MasterRecoveryAnnounceRpc RandMasterRecoveryAnnounceRpc(Rng& rng) {
  return {NodeId(RandI64(rng)), RandU64(rng)};
}

master::ShardStatusRpc RandShardStatusRpc(Rng& rng) {
  return {static_cast<int32_t>(rng.Uniform(64)) - 8, NodeId(RandI64(rng)),
          RandU64(rng), RandI64(rng), RandRes(rng), RandRes(rng)};
}

master::SubmitAppRpc RandSubmitAppRpc(Rng& rng) {
  return {AppId(RandI64(rng)), RandStr(rng), RandJson(rng, 3),
          NodeId(RandI64(rng)), 1.0 + rng.NextDouble()};
}

master::SubmitAppReplyRpc RandSubmitAppReplyRpc(Rng& rng) {
  return {AppId(RandI64(rng)), RandBool(rng), RandStr(rng)};
}

master::StartAppMasterRpc RandStartAppMasterRpc(Rng& rng) {
  return {AppId(RandI64(rng)), RandJson(rng, 3)};
}

master::StopAppRpc RandStopAppRpc(Rng& rng) { return {AppId(RandI64(rng))}; }

master::StartWorkerRpc RandStartWorkerRpc(Rng& rng) {
  return {AppId(RandI64(rng)), RandSlot(rng), NodeId(RandI64(rng)),
          RandU64(rng), std::make_shared<const Json>(RandJson(rng, 3))};
}

WorkerId RandWorker(Rng& rng) { return WorkerId(RandI64(rng)); }

master::WorkerStartedRpc RandWorkerStartedRpc(Rng& rng) {
  return {RandU64(rng),  RandWorker(rng),   MachineId(RandI64(rng)),
          RandBool(rng), RandStr(rng),      RandVec(rng, 4, RandWorker)};
}

master::StopWorkerRpc RandStopWorkerRpc(Rng& rng) { return {RandWorker(rng)}; }

master::WorkerCrashedRpc RandWorkerCrashedRpc(Rng& rng) {
  return {AppId(RandI64(rng)), RandSlot(rng),           RandWorker(rng),
          RandWorker(rng),     MachineId(RandI64(rng)), RandBool(rng)};
}

master::AdoptQueryRpc RandAdoptQueryRpc(Rng& rng) {
  return {AppId(RandI64(rng)), MachineId(RandI64(rng)), NodeId(RandI64(rng)),
          RandVec(rng, 4, RandWorker)};
}

master::AdoptReplyRpc RandAdoptReplyRpc(Rng& rng) {
  return {AppId(RandI64(rng)), MachineId(RandI64(rng)),
          RandVec(rng, 4, RandWorker)};
}

job::WorkerReadyRpc RandWorkerReadyRpc(Rng& rng) {
  return {AppId(RandI64(rng)), RandStr(rng), RandWorker(rng),
          MachineId(RandI64(rng)), NodeId(RandI64(rng))};
}

job::ExecuteInstanceRpc RandExecuteInstanceRpc(Rng& rng) {
  return {RandI64(rng), RandBool(rng), rng.NextDouble() * 100, RandI64(rng),
          1.0 + rng.NextDouble()};
}

job::CancelInstanceRpc RandCancelInstanceRpc(Rng& rng) {
  return {RandI64(rng)};
}

job::InstanceDoneRpc RandInstanceDoneRpc(Rng& rng) {
  return {AppId(RandI64(rng)), RandStr(rng),     RandI64(rng),
          RandBool(rng),       RandWorker(rng),  MachineId(RandI64(rng)),
          rng.NextDouble()};
}

job::WorkerStatusReportRpc RandWorkerStatusReportRpc(Rng& rng) {
  return {AppId(RandI64(rng)),  RandStr(rng),          RandWorker(rng),
          MachineId(RandI64(rng)), NodeId(RandI64(rng)), RandI64(rng),
          rng.NextDouble(),     RandVec(rng, 6, RandI64)};
}

coord::LeaseAcquireRpc RandLeaseAcquireRpc(Rng& rng) {
  return {RandStr(rng), NodeId(RandI64(rng)), rng.NextDouble() * 10,
          RandU64(rng)};
}

coord::LeaseRenewRpc RandLeaseRenewRpc(Rng& rng) {
  return {RandStr(rng), NodeId(RandI64(rng)), rng.NextDouble() * 10,
          RandU64(rng)};
}

coord::LeaseReleaseRpc RandLeaseReleaseRpc(Rng& rng) {
  return {RandStr(rng), NodeId(RandI64(rng)), RandU64(rng)};
}

coord::LeaseReplyRpc RandLeaseReplyRpc(Rng& rng) {
  return {RandU64(rng), RandBool(rng), NodeId(RandI64(rng)), RandU64(rng),
          RandStr(rng)};
}

shard::ShardEntry RandShardEntry(Rng& rng) {
  return {static_cast<int32_t>(rng.Uniform(64)) - 8,
          NodeId(RandI64(rng)),
          RandU64(rng),
          RandI64(rng),
          RandRes(rng),
          RandRes(rng),
          rng.NextDouble() * 1000 - 1};
}

shard::ShardLookupRpc RandShardLookupRpc(Rng& rng) {
  return {NodeId(RandI64(rng)), RandU64(rng)};
}

shard::ShardDirectoryReplyRpc RandShardDirectoryReplyRpc(Rng& rng) {
  return {RandU64(rng), RandVec(rng, 5, RandShardEntry)};
}

shard::RouteSubmitRpc RandRouteSubmitRpc(Rng& rng) {
  return {AppId(RandI64(rng)), RandStr(rng), RandJson(rng, 3),
          NodeId(RandI64(rng)), 1.0 + rng.NextDouble()};
}

shard::RouteReplyRpc RandRouteReplyRpc(Rng& rng) {
  return {AppId(RandI64(rng)), static_cast<int32_t>(rng.Uniform(64)) - 8,
          RandBool(rng), RandStr(rng)};
}

/// Calls `visit(gen)` once for every framed production message type,
/// where `gen(rng)` returns a random instance of it.
/// WireGoldenTest.EveryRegisteredTagIsVisited keeps this list complete.
template <typename Visitor>
void ForEveryMessageType(Visitor&& visit) {
  visit(RandStampedRequest);
  visit(RandStampedGrant);
  visit(RandResyncRequest);
  visit(RandRequestRpc);
  visit(RandGrantRpc);
  visit(RandResyncRpc);
  visit(RandBadMachineReportRpc);
  visit(RandAgentHeartbeatRpc);
  visit(RandAgentCapacityRpc);
  visit(RandAgentHeartbeatAckRpc);
  visit(RandMasterRecoveryAnnounceRpc);
  visit(RandShardStatusRpc);
  visit(RandSubmitAppRpc);
  visit(RandSubmitAppReplyRpc);
  visit(RandStartAppMasterRpc);
  visit(RandStopAppRpc);
  visit(RandStartWorkerRpc);
  visit(RandWorkerStartedRpc);
  visit(RandStopWorkerRpc);
  visit(RandWorkerCrashedRpc);
  visit(RandAdoptQueryRpc);
  visit(RandAdoptReplyRpc);
  visit(RandWorkerReadyRpc);
  visit(RandExecuteInstanceRpc);
  visit(RandCancelInstanceRpc);
  visit(RandInstanceDoneRpc);
  visit(RandWorkerStatusReportRpc);
  visit(RandLeaseAcquireRpc);
  visit(RandLeaseRenewRpc);
  visit(RandLeaseReleaseRpc);
  visit(RandLeaseReplyRpc);
  visit(RandShardLookupRpc);
  visit(RandShardDirectoryReplyRpc);
  visit(RandRouteSubmitRpc);
  visit(RandRouteReplyRpc);
}

/// The message type a generator produces.
template <typename Gen>
using GenType = decltype(std::declval<Gen>()(std::declval<Rng&>()));

// ------------------------------------------------ the property harness

/// encode→decode→encode must be byte-identical, and the counting writer
/// must agree with the bytes actually produced.
template <typename T>
void CheckRoundTrip(const T& msg) {
  std::string bytes = wire::EncodeToString(msg);
  ASSERT_EQ(bytes.size(), wire::FramedSize(msg))
      << "counting and serializing writers disagree";
  T decoded;
  Status status = wire::DecodeFramed(bytes, &decoded);
  ASSERT_TRUE(status.ok()) << status.message();
  EXPECT_EQ(wire::EncodeToString(decoded), bytes)
      << "re-encode of the decoded message is not byte-identical";
}

/// Every single-byte flip and every strict prefix of a valid frame must
/// decode to a non-OK Status (and never crash). The checksum covers the
/// whole prefix and FNV-1a steps are injective, so one flipped byte is a
/// guaranteed mismatch, not a probabilistic one.
template <typename T>
void CheckDamageRejected(const T& msg, Rng& rng) {
  const std::string bytes = wire::EncodeToString(msg);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(static_cast<uint8_t>(bad[i]) ^
                               static_cast<uint8_t>(1 + rng.Uniform(255)));
    T decoded;
    EXPECT_FALSE(wire::DecodeFramed(bad, &decoded).ok())
        << "flip at byte " << i << "/" << bytes.size() << " was accepted";
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    T decoded;
    EXPECT_FALSE(
        wire::DecodeFramed(std::string_view(bytes.data(), len), &decoded).ok())
        << "prefix of " << len << "/" << bytes.size() << " bytes was accepted";
  }
}

constexpr int kFuzzIterations = 25;

// ------------------------------------------------ round trips, per layer

TEST(WireRoundTripTest, ResourceProtocolMessages) {
  Rng rng(101);
  for (int i = 0; i < kFuzzIterations; ++i) {
    CheckRoundTrip(RandStampedRequest(rng));
    CheckRoundTrip(RandStampedGrant(rng));
    CheckRoundTrip(RandResyncRequest(rng));
  }
}

TEST(WireRoundTripTest, MasterControlPlaneMessages) {
  Rng rng(202);
  for (int i = 0; i < kFuzzIterations; ++i) {
    CheckRoundTrip(RandRequestRpc(rng));
    CheckRoundTrip(RandGrantRpc(rng));
    CheckRoundTrip(RandResyncRpc(rng));
    CheckRoundTrip(RandBadMachineReportRpc(rng));
    CheckRoundTrip(RandAgentHeartbeatRpc(rng));
    CheckRoundTrip(RandAgentCapacityRpc(rng));
    CheckRoundTrip(RandAgentHeartbeatAckRpc(rng));
    CheckRoundTrip(RandMasterRecoveryAnnounceRpc(rng));
    CheckRoundTrip(RandSubmitAppRpc(rng));
    CheckRoundTrip(RandSubmitAppReplyRpc(rng));
    CheckRoundTrip(RandStartAppMasterRpc(rng));
    CheckRoundTrip(RandStopAppRpc(rng));
    CheckRoundTrip(RandStartWorkerRpc(rng));
    CheckRoundTrip(RandWorkerStartedRpc(rng));
    CheckRoundTrip(RandStopWorkerRpc(rng));
    CheckRoundTrip(RandWorkerCrashedRpc(rng));
    CheckRoundTrip(RandAdoptQueryRpc(rng));
    CheckRoundTrip(RandAdoptReplyRpc(rng));
  }
}

TEST(WireRoundTripTest, JobControlPlaneMessages) {
  Rng rng(303);
  for (int i = 0; i < kFuzzIterations; ++i) {
    CheckRoundTrip(RandWorkerReadyRpc(rng));
    CheckRoundTrip(RandExecuteInstanceRpc(rng));
    CheckRoundTrip(RandCancelInstanceRpc(rng));
    CheckRoundTrip(RandInstanceDoneRpc(rng));
    CheckRoundTrip(RandWorkerStatusReportRpc(rng));
  }
}

TEST(WireRoundTripTest, CoordLeaseMessages) {
  Rng rng(404);
  for (int i = 0; i < kFuzzIterations; ++i) {
    CheckRoundTrip(RandLeaseAcquireRpc(rng));
    CheckRoundTrip(RandLeaseRenewRpc(rng));
    CheckRoundTrip(RandLeaseReleaseRpc(rng));
    CheckRoundTrip(RandLeaseReplyRpc(rng));
  }
}

TEST(WireRoundTripTest, ShardFederationMessages) {
  Rng rng(707);
  for (int i = 0; i < kFuzzIterations; ++i) {
    CheckRoundTrip(RandShardStatusRpc(rng));
    CheckRoundTrip(RandShardLookupRpc(rng));
    CheckRoundTrip(RandShardDirectoryReplyRpc(rng));
    CheckRoundTrip(RandRouteSubmitRpc(rng));
    CheckRoundTrip(RandRouteReplyRpc(rng));

    // ShardEntry is nested (unframed): its bare body round-trips too.
    shard::ShardEntry entry = RandShardEntry(rng);
    std::string body = wire::EncodeBody(entry);
    shard::ShardEntry decoded;
    ASSERT_TRUE(wire::DecodeBody(body, &decoded).ok());
    EXPECT_EQ(wire::EncodeBody(decoded), body);
    EXPECT_EQ(decoded.updated_at, entry.updated_at);
    EXPECT_EQ(decoded.granted, entry.granted);
  }
}

// ------------------------------------------- frame-byte golden table
//
// For every framed type: kGoldenInstances seeded instances (the Rng is
// seeded with the type's tag), encoded back to back; the table pins the
// total size and the FNV-1a 64 digest of those bytes. The round-trip
// battery cannot see a layout change that encode and decode make
// together (a field reorder, a bool widened to a varint); this can.
// The table was captured from hand-written encode/decode pairs before
// they became declarative field lists, and must not move unless a
// message's format version is bumped.

constexpr int kGoldenInstances = 16;

struct GoldenFrames {
  std::string_view type;
  size_t bytes;
  uint64_t digest;
};

constexpr GoldenFrames kGoldenFrames[] = {
    {"resource.StampedRequest", 2421, 0xd593a4549e06b7f7},
    {"resource.StampedGrant", 697, 0x9aa802848d9f2080},
    {"resource.ResyncRequest", 165, 0xe7e4634f3a820afb},
    {"master.RequestRpc", 2743, 0x374a3626969581a6},
    {"master.GrantRpc", 878, 0x9bbbabbee9a03808},
    {"master.ResyncRpc", 286, 0x9e4995be21d8d23f},
    {"master.BadMachineReportRpc", 185, 0x29928139dc64675e},
    {"master.AgentHeartbeatRpc", 1000, 0x667244ae5fbd8d6e},
    {"master.AgentCapacityRpc", 778, 0xd4e3d004578d817d},
    {"master.AgentHeartbeatAckRpc", 178, 0xfca77fc4834a4a72},
    {"master.MasterRecoveryAnnounceRpc", 242, 0xf0be2bde6e29c300},
    {"shard.ShardStatusRpc", 487, 0x0142dbd5a066c5c2},
    {"master.SubmitAppRpc", 877, 0x8141fb5ca8c05534},
    {"master.SubmitAppReplyRpc", 340, 0xd0c077ce479d9cd7},
    {"master.StartAppMasterRpc", 317, 0xafc0c247fe8ef38b},
    {"master.StopAppRpc", 139, 0x9e5c0a5770f05625},
    {"master.StartWorkerRpc", 478, 0x59c1a0b08534cbab},
    {"master.WorkerStartedRpc", 565, 0xf2e94c4083c9d9ed},
    {"master.StopWorkerRpc", 165, 0x7589ca5a2899edbc},
    {"master.WorkerCrashedRpc", 407, 0x995cb4fd89e836f1},
    {"master.AdoptQueryRpc", 424, 0x462d98ae0075e072},
    {"master.AdoptReplyRpc", 361, 0x31c4d6dd12bcc012},
    {"job.WorkerReadyRpc", 518, 0x332d55af2d9a205a},
    {"job.ExecuteInstanceRpc", 483, 0x294686350b12e3a4},
    {"job.CancelInstanceRpc", 157, 0xbdfbbd4caae3f8bc},
    {"job.InstanceDoneRpc", 689, 0xefe38c26cd627c2c},
    {"job.WorkerStatusReportRpc", 813, 0x82b4c5314e31a584},
    {"coord.LeaseAcquireRpc", 497, 0xe9d966c8e566901c},
    {"coord.LeaseRenewRpc", 522, 0x18b94dab25ecb53a},
    {"coord.LeaseReleaseRpc", 359, 0xf2bdfae8d417b624},
    {"coord.LeaseReplyRpc", 444, 0x1bfea66c87cad52f},
    {"shard.ShardLookupRpc", 230, 0xa4f280697ad09d0c},
    {"shard.ShardDirectoryReplyRpc", 1158, 0x7748235897db57fd},
    {"shard.RouteSubmitRpc", 667, 0xe9ac129714b73442},
    {"shard.RouteReplyRpc", 376, 0x0cbda4e1a09c0de8},
};

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(WireGoldenTest, SeededFramesMatchCheckedInDigests) {
  std::map<std::string_view, std::pair<size_t, uint64_t>> expected;
  for (const GoldenFrames& row : kGoldenFrames) {
    expected[row.type] = {row.bytes, row.digest};
  }
  std::string table;  // printed on mismatch, in the table's own syntax
  int mismatches = 0;
  ForEveryMessageType([&](auto gen) {
    using T = GenType<decltype(gen)>;
    constexpr wire::MsgTag tag = wire::TypeInfoOf<T>().tag;
    Rng rng(static_cast<uint64_t>(tag));
    std::string frames;
    for (int i = 0; i < kGoldenInstances; ++i) {
      wire::EncodeFramed(gen(rng), &frames);
    }
    const std::string_view name = wire::MsgTagName(tag);
    const std::pair<size_t, uint64_t> got = {frames.size(), Fnv1a64(frames)};
    char row[128];
    std::snprintf(row, sizeof(row), "    {\"%s\", %zu, 0x%016" PRIx64 "},\n",
                  std::string(name).c_str(), got.first, got.second);
    table += row;
    auto it = expected.find(name);
    if (it == expected.end() || it->second != got) {
      ++mismatches;
      ADD_FAILURE() << name << ": " << got.first << " bytes, digest "
                    << std::hex << got.second << " not in the golden table";
    }
  });
  EXPECT_EQ(mismatches, 0) << "current table:\n" << table;
}

TEST(WireGoldenTest, EveryRegisteredTagIsVisited) {
  std::map<std::string_view, int> visited;
  ForEveryMessageType([&](auto gen) {
    using T = GenType<decltype(gen)>;
    ++visited[wire::MsgTagName(wire::TypeInfoOf<T>().tag)];
  });
  size_t registered = 0;
  for (int tag = 1; tag < static_cast<int>(wire::MsgTag::kTestPing); ++tag) {
    std::string_view name = wire::MsgTagName(static_cast<wire::MsgTag>(tag));
    if (name == "wire.unknown") continue;
    ++registered;
    EXPECT_EQ(visited[name], 1) << name << " missing from ForEveryMessageType";
  }
  EXPECT_EQ(visited.size(), registered);
  EXPECT_EQ(std::size(kGoldenFrames), registered);
}

// --------------------------------------- damage batteries, every type

TEST(WireDamageTest, EveryFlipAndEveryTruncationRejected) {
  Rng rng(505);
  ForEveryMessageType([&](auto gen) {
    SCOPED_TRACE(wire::MsgTagName(
        wire::TypeInfoOf<GenType<decltype(gen)>>().tag));
    CheckDamageRejected(gen(rng), rng);
  });
}

TEST(WireDamageTest, WrongTagRejected) {
  job::CancelInstanceRpc cancel{5};
  std::string bytes = wire::EncodeToString(cancel);
  master::StopAppRpc other;
  Status status = wire::DecodeFramed(bytes, &other);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("tag"), std::string::npos)
      << status.message();
}

TEST(WireDamageTest, WrongVersionRejected) {
  // Rewrite the version byte (index 1: the tag varint of every current
  // message is a single byte) and fix the checksum so ONLY the version
  // check can reject.
  job::CancelInstanceRpc cancel{5};
  std::string bytes = wire::EncodeToString(cancel);
  bytes[1] = 2;
  uint32_t sum = wire::FrameChecksum(
      std::string_view(bytes.data(), bytes.size() - wire::kChecksumBytes));
  for (size_t i = 0; i < wire::kChecksumBytes; ++i) {
    bytes[bytes.size() - wire::kChecksumBytes + i] =
        static_cast<char>(sum >> (8 * i));
  }
  job::CancelInstanceRpc decoded;
  Status status = wire::DecodeFramed(bytes, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("version"), std::string::npos)
      << status.message();
}

// ------------------------------- version migration (tenant refactor)
//
// SubmitAppRpc and RouteSubmitRpc moved from v1 (flat quota_group) to
// v2 (tenant_path + weight) with min_version = 1: old frames must keep
// decoding — the group name lands in tenant_path, the weight defaults —
// while versions outside [1, 2] stay hard corruption errors.

/// Appends a valid checksum to a hand-built frame prefix.
std::string SealFrame(std::string frame) {
  uint32_t sum = wire::FrameChecksum(frame);
  for (size_t i = 0; i < wire::kChecksumBytes; ++i) {
    frame.push_back(static_cast<char>(sum >> (8 * i)));
  }
  return frame;
}

/// The pre-hierarchy SubmitAppRpc body: ends at the client id.
std::string V1SubmitFrame(uint64_t tag, uint8_t version) {
  std::string frame;
  wire::Writer w(&frame);
  w.U64(tag);
  w.Byte(version);
  w.Id(AppId(42));
  w.Str("batch");
  wire::WireEncode(w, Json(std::string("job-desc")));
  w.Id(NodeId(7));
  return SealFrame(std::move(frame));
}

TEST(WireVersionMigrationTest, V1SubmitAppFrameStillDecodes) {
  std::string frame =
      V1SubmitFrame(static_cast<uint64_t>(wire::MsgTag::kSubmitAppRpc), 1);
  master::SubmitAppRpc decoded;
  Status status = wire::DecodeFramed(frame, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.app, AppId(42));
  EXPECT_EQ(decoded.tenant_path, "batch")
      << "old flat group name is a root-level tenant path";
  EXPECT_EQ(decoded.client, NodeId(7));
  EXPECT_DOUBLE_EQ(decoded.weight, 1.0) << "missing field keeps default";
}

TEST(WireVersionMigrationTest, V1RouteSubmitFrameStillDecodes) {
  std::string frame =
      V1SubmitFrame(static_cast<uint64_t>(wire::MsgTag::kRouteSubmitRpc), 1);
  shard::RouteSubmitRpc decoded;
  Status status = wire::DecodeFramed(frame, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(decoded.tenant_path, "batch");
  EXPECT_DOUBLE_EQ(decoded.weight, 1.0);
}

TEST(WireVersionMigrationTest, CurrentSubmitFramesAreVersion2) {
  master::SubmitAppRpc submit;
  submit.app = AppId(1);
  submit.tenant_path = "t/org/user";
  submit.weight = 2.5;
  std::string bytes = wire::EncodeToString(submit);
  EXPECT_EQ(static_cast<uint8_t>(bytes[1]), 2)
      << "tag is a one-byte varint, version byte follows";
  master::SubmitAppRpc decoded;
  ASSERT_TRUE(wire::DecodeFramed(bytes, &decoded).ok());
  EXPECT_EQ(decoded.tenant_path, "t/org/user");
  EXPECT_DOUBLE_EQ(decoded.weight, 2.5);
}

TEST(WireVersionMigrationTest, VersionsOutsideTheRangeStayRejected) {
  for (uint8_t version : {0, 3, 9}) {
    std::string frame = V1SubmitFrame(
        static_cast<uint64_t>(wire::MsgTag::kSubmitAppRpc), version);
    master::SubmitAppRpc decoded;
    Status status = wire::DecodeFramed(frame, &decoded);
    ASSERT_FALSE(status.ok()) << "version " << int(version);
    EXPECT_NE(status.message().find("version"), std::string::npos)
        << status.message();
  }
}

TEST(WireDamageTest, HugeVectorCountCannotDriveAllocation) {
  // Hand-build a frame whose vector count claims 2^40 elements behind a
  // VALID checksum: the decoder must reject on count-vs-remaining, not
  // try to reserve a terabyte.
  std::string frame;
  wire::Writer w(&frame);
  w.U64(static_cast<uint64_t>(wire::MsgTag::kAdoptReplyRpc));
  w.Byte(1);
  w.Id(AppId(7));
  w.Id(MachineId(3));
  w.U64(uint64_t{1} << 40);  // keep.size(), absurd
  uint32_t sum = wire::FrameChecksum(frame);
  for (size_t i = 0; i < wire::kChecksumBytes; ++i) {
    frame.push_back(static_cast<char>(sum >> (8 * i)));
  }
  master::AdoptReplyRpc decoded;
  Status status = wire::DecodeFramed(frame, &decoded);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("vector count"), std::string::npos)
      << status.message();
}

TEST(WireDamageTest, OversizedStringLengthRejected) {
  std::string body;
  wire::Writer w(&body);
  w.U64(1000);  // claimed string length far beyond the actual bytes
  body += "abc";
  wire::Reader r(body);
  std::string out;
  EXPECT_FALSE(r.Str(&out).ok());
}

// --------------------------------------------------- primitive behaviour

TEST(WirePrimitiveTest, NonMinimalVarintRejected) {
  // 0x80 0x00 denotes 0 in two bytes; canonical form is the single 0x00.
  wire::Reader bad(std::string_view("\x80\x00", 2));
  uint64_t v;
  EXPECT_FALSE(bad.U64(&v).ok());

  wire::Reader good(std::string_view("\x80\x01", 2));
  ASSERT_TRUE(good.U64(&v).ok());
  EXPECT_EQ(v, 128u);
}

TEST(WirePrimitiveTest, ZigzagExtremesRoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    std::string bytes;
    wire::Writer w(&bytes);
    w.I64(v);
    wire::Reader r(bytes);
    int64_t out;
    ASSERT_TRUE(r.I64(&out).ok());
    EXPECT_EQ(out, v);
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(WirePrimitiveTest, DoubleBitsAreExact) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {0.0, -0.0, 1.5, -1e300, nan,
                   std::numeric_limits<double>::infinity()}) {
    std::string bytes;
    wire::Writer w(&bytes);
    w.F64(v);
    wire::Reader r(bytes);
    double out;
    ASSERT_TRUE(r.F64(&out).ok());
    uint64_t in_bits, out_bits;
    std::memcpy(&in_bits, &v, sizeof(in_bits));
    std::memcpy(&out_bits, &out, sizeof(out_bits));
    EXPECT_EQ(out_bits, in_bits);
  }
}

TEST(WirePrimitiveTest, BoolMustBeZeroOrOne) {
  wire::Reader r(std::string_view("\x02", 1));
  bool b;
  EXPECT_FALSE(r.Bool(&b).ok());
}

TEST(WirePrimitiveTest, U32RangeChecked) {
  std::string bytes;
  wire::Writer w(&bytes);
  w.U64(uint64_t{1} << 33);
  wire::Reader r(bytes);
  uint32_t out;
  EXPECT_FALSE(r.U32(&out).ok());
}

TEST(WirePrimitiveTest, EnumRangeChecked) {
  std::string bytes;
  wire::Writer w(&bytes);
  w.U64(99);
  wire::Reader r(bytes);
  resource::RevocationReason reason;
  EXPECT_FALSE(r.Enum(&reason, resource::RevocationReason::kReconcile).ok());
}

// --------------------------------------------------------- Json codec

TEST(WireJsonTest, StructuralRoundTripIsExact) {
  Rng rng(606);
  for (int i = 0; i < kFuzzIterations; ++i) {
    Json doc = RandJson(rng, 4);
    std::string bytes = wire::EncodeBody(doc);
    Json decoded;
    Status status = wire::DecodeBody(bytes, &decoded);
    ASSERT_TRUE(status.ok()) << status.message();
    EXPECT_EQ(decoded, doc);
    EXPECT_EQ(wire::EncodeBody(decoded), bytes);
  }
}

TEST(WireJsonTest, SharedDocumentEncodesAsItsPointee) {
  Rng rng(607);
  for (int i = 0; i < kFuzzIterations; ++i) {
    SharedJson doc = std::make_shared<const Json>(RandJson(rng, 4));
    std::string bytes = wire::EncodeBody(doc);
    EXPECT_EQ(bytes, wire::EncodeBody(*doc));
    SharedJson decoded;
    ASSERT_TRUE(wire::DecodeBody(bytes, &decoded).ok());
    if (doc->is_null()) {
      EXPECT_EQ(decoded, nullptr);
    } else {
      ASSERT_NE(decoded, nullptr);
      EXPECT_NE(decoded, doc) << "a decode must build its own document";
      EXPECT_EQ(*decoded, *doc);
    }
  }
}

TEST(WireJsonTest, NullSharedDocumentRoundTripsAsJsonNull) {
  master::StartWorkerRpc rpc{AppId(3), 1, NodeId(7), 42, nullptr};
  master::StartWorkerRpc with_null_json = rpc;
  with_null_json.plan = std::make_shared<const Json>();
  EXPECT_EQ(wire::EncodeBody(SharedJson()), wire::EncodeBody(Json()));
  std::string bytes = wire::EncodeToString(rpc);
  EXPECT_EQ(bytes, wire::EncodeToString(with_null_json));
  master::StartWorkerRpc decoded;
  decoded.plan = std::make_shared<const Json>(Json("stale"));
  ASSERT_TRUE(wire::DecodeFramed(bytes, &decoded).ok());
  EXPECT_EQ(decoded.plan, nullptr);
  EXPECT_EQ(decoded.plan_id, 42u);
}

TEST(WireJsonTest, NestingDepthCapped) {
  Json doc = Json(1.0);
  for (int i = 0; i < 80; ++i) {
    doc = Json(Json::Array{std::move(doc)});
  }
  std::string bytes = wire::EncodeBody(doc);
  Json decoded;
  EXPECT_FALSE(wire::DecodeBody(bytes, &decoded).ok())
      << "decoder accepted nesting past the recursion cap";
}

// ------------------------------------------------------- tag registry

TEST(WireTagTest, NamesAreRegisteredAndStable) {
  EXPECT_EQ(wire::MsgTagName(wire::MsgTag::kStampedRequest),
            "resource.StampedRequest");
  EXPECT_EQ(wire::MsgTagName(wire::MsgTag::kRequestRpc), "master.RequestRpc");
  EXPECT_EQ(wire::MsgTagName(wire::MsgTag::kWorkerReadyRpc),
            "job.WorkerReadyRpc");
  EXPECT_EQ(wire::MsgTagName(wire::MsgTag::kLeaseAcquireRpc),
            "coord.LeaseAcquireRpc");
  EXPECT_EQ(wire::MsgTagName(wire::MsgTag::kInvalid), "unencoded");
  EXPECT_EQ(wire::MsgTagName(static_cast<wire::MsgTag>(9999)), "wire.unknown");
}

}  // namespace
}  // namespace fuxi
