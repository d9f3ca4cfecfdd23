// fuxi::obs decision-audit tests: ring stamping and eviction, JSON
// round-trips, the explain queries (demand / machine / rejection chain /
// unplaced), grant-flow timelines, and a Scheduler integration check
// that an unplaced demand is always explainable from the dump.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/topology.h"
#include "common/json.h"
#include "obs/audit.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "resource/scheduler.h"
#include "sim/simulator.h"

namespace fuxi::obs {
namespace {

using cluster::ClusterTopology;
using cluster::ResourceVector;

// ------------------------------------------------------------ AuditLog

TEST(AuditLogTest, CommitStampsIdTimeAndAmbientSpan) {
  sim::Simulator sim;
  TraceRecorder trace(&sim);
  AuditLog log(&sim, &trace);

  sim.Schedule(2.5, [&] {
    uint64_t span = trace.BeginSpan("test", "op");
    TraceRecorder::Scope scope(&trace, span);
    DecisionRecord rec;
    rec.kind = DecisionKind::kPlace;
    log.Commit(std::move(rec));
    trace.EndSpan(span);
  });
  sim.RunToCompletion();
  DecisionRecord outside;  // committed with no ambient span
  log.Commit(std::move(outside));

  std::vector<DecisionRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, 1u);
  EXPECT_EQ(records[1].id, 2u);
  EXPECT_DOUBLE_EQ(records[0].time, 2.5);
  EXPECT_NE(records[0].trace_span, 0u)
      << "commit inside a handler must capture the ambient span";
  EXPECT_EQ(records[1].trace_span, 0u);
  EXPECT_EQ(log.records_committed(), 2u);
}

TEST(AuditLogTest, RingEvictsOldestFirst) {
  AuditLog log(nullptr, nullptr, 2);
  for (int i = 0; i < 3; ++i) {
    DecisionRecord rec;
    log.Commit(std::move(rec));
  }
  EXPECT_EQ(log.overwritten(), 1u);
  std::vector<DecisionRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, 2u);
  EXPECT_EQ(records[1].id, 3u);
}

TEST(AuditLogTest, ClearResetsIdsAndRing) {
  AuditLog log(nullptr, nullptr, 4);
  DecisionRecord rec;
  log.Commit(std::move(rec));
  log.Clear();
  EXPECT_EQ(log.records_committed(), 0u);
  EXPECT_TRUE(log.Snapshot().empty());
  DecisionRecord again;
  log.Commit(std::move(again));
  ASSERT_EQ(log.Snapshot().size(), 1u);
  EXPECT_EQ(log.Snapshot()[0].id, 1u);
}

TEST(AuditLogTest, PerRecordCandidateCapCountsDrops) {
  DecisionRecord rec;
  for (int i = 0; i < 70; ++i) {
    rec.AddCandidate({1, 0, i, 2, RejectReason::kNoFreeCapacity, 0, 7});
  }
  EXPECT_EQ(rec.candidates.size(), DecisionRecord::kMaxCandidates);
  EXPECT_EQ(rec.candidates_dropped,
            70u - static_cast<uint32_t>(DecisionRecord::kMaxCandidates));
}

// ------------------------------------------------------------- JSON

TEST(AuditJsonTest, RoundTripsAllFields) {
  DecisionRecord rec;
  rec.kind = DecisionKind::kPreempt;
  rec.app = 3;
  rec.slot = 2;
  rec.machine = 7;
  rec.reason = RejectReason::kCandidateCap;
  rec.units = 4;
  rec.remaining_before = 9;
  rec.remaining_after = 5;
  rec.candidates_dropped = 1;
  rec.note = "victim sweep";
  rec.AddCandidate({3, 2, 6, 1, RejectReason::kNone, 4, 5});
  rec.AddCandidate({3, 2, 8, 2, RejectReason::kNegativeFitCache, 0, 5});
  AuditLog log(nullptr, nullptr);
  log.Commit(std::move(rec));

  std::string json = ExportAuditJson(log.Snapshot());
  Result<Json> parsed = Json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  std::vector<DecisionRecord> back = AuditRecordsFromJson(parsed.value());
  ASSERT_EQ(back.size(), 1u);
  const DecisionRecord& r = back[0];
  EXPECT_EQ(r.id, 1u);
  EXPECT_EQ(r.kind, DecisionKind::kPreempt);
  EXPECT_EQ(r.app, 3);
  EXPECT_EQ(r.slot, 2u);
  EXPECT_EQ(r.machine, 7);
  EXPECT_EQ(r.reason, RejectReason::kCandidateCap);
  EXPECT_EQ(r.units, 4);
  EXPECT_EQ(r.remaining_before, 9);
  EXPECT_EQ(r.remaining_after, 5);
  EXPECT_EQ(r.candidates_dropped, 1u);
  EXPECT_EQ(r.note, "victim sweep");
  ASSERT_EQ(r.candidates.size(), 2u);
  EXPECT_EQ(r.candidates[0].machine, 6);
  EXPECT_EQ(r.candidates[0].tier, 1);
  EXPECT_EQ(r.candidates[0].granted, 4);
  EXPECT_EQ(r.candidates[1].reason, RejectReason::kNegativeFitCache);
  // Re-exporting the parsed records reproduces the document exactly.
  EXPECT_EQ(ExportAuditJson(back), json);
}

TEST(AuditJsonTest, DefaultFieldsAreOmitted) {
  DecisionRecord rec;  // kPlace, no subject, no outcome, no candidates
  std::string json = ExportAuditJson({rec});
  EXPECT_NE(json.find("\"kind\":"), std::string::npos);
  EXPECT_NE(json.find("\"id\":"), std::string::npos);
  EXPECT_EQ(json.find("\"reason\":"), std::string::npos);
  EXPECT_EQ(json.find("\"cand\":"), std::string::npos);
  EXPECT_EQ(json.find("\"note\":"), std::string::npos);
  EXPECT_EQ(json.find("\"app\":"), std::string::npos);
  EXPECT_EQ(json.find("\"span\":"), std::string::npos);
}

TEST(AuditJsonTest, EveryKindAndReasonNameRoundTrips) {
  for (int k = 0; k <= static_cast<int>(DecisionKind::kAgentKill); ++k) {
    for (int w = 0; w <= static_cast<int>(RejectReason::kGrantRevoked);
         ++w) {
      DecisionRecord rec;
      rec.kind = static_cast<DecisionKind>(k);
      rec.reason = static_cast<RejectReason>(w);
      Result<Json> parsed = Json::Parse(ExportAuditJson({rec}));
      ASSERT_TRUE(parsed.ok());
      std::vector<DecisionRecord> back =
          AuditRecordsFromJson(parsed.value());
      ASSERT_EQ(back.size(), 1u);
      EXPECT_EQ(back[0].kind, rec.kind) << DecisionKindName(rec.kind);
      EXPECT_EQ(back[0].reason, rec.reason)
          << RejectReasonName(rec.reason);
    }
  }
}

// ----------------------------------------------------------- queries

std::vector<DecisionRecord> QueryFixture() {
  std::vector<DecisionRecord> records;
  // Place for (1,0): machine 4 rejected, record-level no-free-machines.
  DecisionRecord place;
  place.id = 1;
  place.time = 1.0;
  place.kind = DecisionKind::kPlace;
  place.app = 1;
  place.slot = 0;
  place.reason = RejectReason::kNoFreeMachines;
  place.remaining_before = 3;
  place.remaining_after = 3;
  place.AddCandidate({1, 0, 4, 0, RejectReason::kAvoided, 0, 3});
  records.push_back(place);
  // Pass over machine 2: grants 2 units to (1,0), rejects (5,1).
  DecisionRecord pass;
  pass.id = 2;
  pass.time = 2.0;
  pass.kind = DecisionKind::kPass;
  pass.machine = 2;
  pass.AddCandidate({1, 0, -1, 2, RejectReason::kNone, 2, 1});
  pass.AddCandidate({5, 1, -1, 2, RejectReason::kQuotaHeadroom, 0, 6});
  records.push_back(pass);
  // (1,0) loses a unit on machine 2.
  DecisionRecord revoke;
  revoke.id = 3;
  revoke.time = 3.0;
  revoke.kind = DecisionKind::kRevoke;
  revoke.app = 1;
  revoke.slot = 0;
  revoke.machine = 2;
  revoke.units = 1;
  revoke.remaining_before = 1;
  revoke.remaining_after = 2;
  records.push_back(revoke);
  // Unrelated machine event.
  DecisionRecord event;
  event.id = 4;
  event.time = 3.5;
  event.kind = DecisionKind::kMachineEvent;
  event.machine = 9;
  event.note = "down: power";
  records.push_back(event);
  return records;
}

TEST(AuditQueryTest, ExplainDemandFindsSubjectAndCandidateMentions) {
  std::vector<DecisionRecord> records = QueryFixture();
  std::vector<const DecisionRecord*> hits = ExplainDemand(records, 1, 0);
  ASSERT_EQ(hits.size(), 3u);  // place, pass (as candidate), revoke
  EXPECT_EQ(hits[0]->id, 1u);
  EXPECT_EQ(hits[1]->id, 2u);
  EXPECT_EQ(hits[2]->id, 3u);
  EXPECT_EQ(ExplainDemand(records, 5, 1).size(), 1u);
  EXPECT_TRUE(ExplainDemand(records, 42, 0).empty());
}

TEST(AuditQueryTest, ExplainMachineFindsSubjectAndCandidateMentions) {
  std::vector<DecisionRecord> records = QueryFixture();
  std::vector<const DecisionRecord*> m2 = ExplainMachine(records, 2);
  ASSERT_EQ(m2.size(), 2u);  // the pass and the revoke
  EXPECT_EQ(m2[0]->id, 2u);
  std::vector<const DecisionRecord*> m4 = ExplainMachine(records, 4);
  ASSERT_EQ(m4.size(), 1u);  // mentioned only as a rejected candidate
  EXPECT_EQ(m4[0]->id, 1u);
  EXPECT_EQ(ExplainMachine(records, 9).size(), 1u);
}

TEST(AuditQueryTest, RejectionChainCollectsEveryNegativeOutcome) {
  std::vector<DecisionRecord> records = QueryFixture();
  std::vector<CandidateOutcome> chain = RejectionChain(records, 1, 0);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].reason, RejectReason::kAvoided);
  EXPECT_EQ(chain[0].machine, 4);
  EXPECT_EQ(chain[1].reason, RejectReason::kNoFreeMachines);
  EXPECT_EQ(chain[2].reason, RejectReason::kGrantRevoked);
  EXPECT_EQ(chain[2].machine, 2);
  EXPECT_EQ(chain[2].granted, -1);

  std::vector<CandidateOutcome> other = RejectionChain(records, 5, 1);
  ASSERT_EQ(other.size(), 1u);
  EXPECT_EQ(other[0].reason, RejectReason::kQuotaHeadroom);
}

TEST(AuditQueryTest, UnplacedAtEndFoldsLastKnownRemaining) {
  std::vector<DecisionRecord> records = QueryFixture();
  std::vector<UnplacedDemand> unplaced = UnplacedAtEnd(records);
  ASSERT_EQ(unplaced.size(), 2u);  // sorted by (app, slot)
  EXPECT_EQ(unplaced[0].app, 1);
  EXPECT_EQ(unplaced[0].slot, 0u);
  EXPECT_EQ(unplaced[0].remaining, 2);  // the revoke is the last word
  EXPECT_EQ(unplaced[1].app, 5);
  EXPECT_EQ(unplaced[1].remaining, 6);

  // A later pass that drains (1,0) removes it from the unplaced set.
  DecisionRecord drain;
  drain.kind = DecisionKind::kPass;
  drain.machine = 3;
  drain.AddCandidate({1, 0, -1, 2, RejectReason::kNone, 2, 0});
  records.push_back(drain);
  unplaced = UnplacedAtEnd(records);
  ASSERT_EQ(unplaced.size(), 1u);
  EXPECT_EQ(unplaced[0].app, 5);
}

// ---------------------------------------------------------- timelines

TEST(TimelineTest, ExtractsGrantFlowAndBuildsSeries) {
  std::vector<DecisionRecord> records;
  DecisionRecord place;
  place.kind = DecisionKind::kPlace;
  place.time = 1.0;
  place.app = 1;
  place.slot = 0;
  place.AddCandidate({1, 0, 0, 0, RejectReason::kNone, 3, 2});
  place.AddCandidate({1, 0, 5, 2, RejectReason::kNoFreeCapacity, 0, 2});
  records.push_back(place);
  DecisionRecord pass;
  pass.kind = DecisionKind::kPass;
  pass.time = 2.0;
  pass.machine = 1;
  pass.AddCandidate({2, 0, -1, 2, RejectReason::kNone, 4, 0});
  records.push_back(pass);
  DecisionRecord revoke;
  revoke.kind = DecisionKind::kRevoke;
  revoke.time = 3.0;
  revoke.app = 1;
  revoke.slot = 0;
  revoke.machine = 0;
  revoke.units = 2;
  records.push_back(revoke);

  std::vector<GrantEvent> events = ExtractGrantEvents(records);
  ASSERT_EQ(events.size(), 3u);  // the rejected candidate is not flow
  EXPECT_EQ(events[0].delta, 3);
  EXPECT_EQ(events[0].machine, 0);
  EXPECT_EQ(events[1].app, 2);
  EXPECT_EQ(events[1].machine, 1);  // kPass: machine from the record
  EXPECT_EQ(events[2].delta, -2);

  std::vector<Series> apps = AppUtilization(events);
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0].key, 1);
  EXPECT_EQ(apps[0].peak, 3);
  EXPECT_EQ(apps[0].final_held, 1);
  EXPECT_EQ(apps[1].key, 2);
  EXPECT_EQ(apps[1].final_held, 4);

  std::vector<Series> machines = MachineOccupancy(events);
  ASSERT_EQ(machines.size(), 2u);
  EXPECT_EQ(machines[0].key, 0);
  EXPECT_EQ(machines[0].final_held, 1);
  EXPECT_EQ(machines[1].key, 1);
  EXPECT_EQ(machines[1].final_held, 4);

  std::string render = RenderTimeline(apps, "app utilization", 20);
  EXPECT_NE(render.find("app utilization (2 rows)"), std::string::npos);
  EXPECT_NE(render.find("peak=3 end=1"), std::string::npos);
  EXPECT_NE(render.find("peak=4 end=4"), std::string::npos);
  // Deterministic: identical input renders byte-identically.
  EXPECT_EQ(render, RenderTimeline(apps, "app utilization", 20));
}

TEST(TimelineTest, HeldUnitsClampAtZeroOnTruncatedDumps) {
  // A revoke whose matching grant was evicted from the ring: the series
  // must not go negative.
  std::vector<GrantEvent> events;
  events.push_back({1.0, 1, 0, 0, -5});
  events.push_back({2.0, 1, 0, 0, 2});
  std::vector<Series> apps = AppUtilization(events);
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps[0].points.front().second, 0);
  EXPECT_EQ(apps[0].final_held, 2);
}

// ---------------------------------------------- Scheduler integration

TEST(SchedulerAuditTest, UnplacedDemandIsAlwaysExplainable) {
  ClusterTopology::Options topo_options;
  topo_options.racks = 1;
  topo_options.machines_per_rack = 2;
  topo_options.machine_capacity = ResourceVector(100, 1024);
  ClusterTopology topo = ClusterTopology::Build(topo_options);
  resource::Scheduler scheduler(&topo);
  AuditLog log(nullptr, nullptr);
  scheduler.set_audit(&log);
  ASSERT_TRUE(scheduler.RegisterApp(AppId(1)).ok());

  // Ask for 5 units of which only 2 fit (one per machine).
  resource::SchedulingResult result;
  resource::ResourceRequest request;
  request.app = AppId(1);
  resource::UnitRequestDelta unit;
  unit.slot_id = 0;
  unit.has_def = true;
  unit.def.slot_id = 0;
  unit.def.resources = ResourceVector(60, 512);
  unit.total_count_delta = 5;
  request.units.push_back(unit);
  ASSERT_TRUE(scheduler.ApplyRequest(request, &result).ok());
  EXPECT_EQ(result.assignments.size(), 2u);

  // Lose one of the two grants to a machine failure; the re-place
  // attempt fails (the other machine is full).
  scheduler.SetMachineOffline(MachineId(0), &result);

  std::vector<DecisionRecord> dump = log.Snapshot();
  ASSERT_GT(dump.size(), 0u);
  std::set<DecisionKind> kinds;
  for (const DecisionRecord& r : dump) kinds.insert(r.kind);
  EXPECT_TRUE(kinds.count(DecisionKind::kPlace));
  EXPECT_TRUE(kinds.count(DecisionKind::kRevoke));

  // The demand is unplaced and its chain explains why.
  std::vector<UnplacedDemand> unplaced = UnplacedAtEnd(dump);
  ASSERT_EQ(unplaced.size(), 1u);
  EXPECT_EQ(unplaced[0].app, 1);
  EXPECT_EQ(unplaced[0].remaining, 4);  // 5 asked - 2 placed + 1 revoked
  std::vector<CandidateOutcome> chain = RejectionChain(dump, 1, 0);
  ASSERT_FALSE(chain.empty());
  bool saw_revoked = false;
  for (const CandidateOutcome& c : chain) {
    if (c.reason == RejectReason::kGrantRevoked) saw_revoked = true;
  }
  EXPECT_TRUE(saw_revoked);
  EXPECT_FALSE(ExplainDemand(dump, 1, 0).empty());
  EXPECT_FALSE(ExplainMachine(dump, 0).empty());

  // The dump round-trips through its own JSON export byte-for-byte.
  std::string json = ExportAuditJson(dump);
  Result<Json> parsed = Json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(ExportAuditJson(AuditRecordsFromJson(parsed.value())), json);

  // And the grant flow reconstructs a sane occupancy timeline.
  std::vector<Series> occupancy =
      MachineOccupancy(ExtractGrantEvents(dump));
  ASSERT_EQ(occupancy.size(), 2u);
  EXPECT_EQ(occupancy[0].final_held + occupancy[1].final_held, 1);
}

TEST(SchedulerAuditTest, HierarchicalClampNoteCarriesTenantChain) {
  ClusterTopology::Options topo_options;
  topo_options.racks = 1;
  topo_options.machines_per_rack = 2;
  topo_options.machine_capacity = ResourceVector(100, 1024);
  ClusterTopology topo = ClusterTopology::Build(topo_options);
  resource::Scheduler scheduler(&topo);
  AuditLog log(nullptr, nullptr);
  scheduler.set_audit(&log);
  ASSERT_TRUE(
      scheduler.CreateTenantNode("org", ResourceVector(100, 1024)).ok());
  ASSERT_TRUE(
      scheduler.CreateTenantNode("org/team", ResourceVector(50, 512)).ok());
  ASSERT_TRUE(
      scheduler.CreateTenantNode("other", ResourceVector(100, 1024)).ok());
  ASSERT_TRUE(scheduler.RegisterApp(AppId(1), "org/team").ok());
  ASSERT_TRUE(scheduler.RegisterApp(AppId(2), "other").ok());

  // "other" queues one unplaceable unit: its node sits in deficit with
  // demand waiting, so competing tenants get clamped to their
  // contention headroom instead of eating the whole cluster.
  resource::SchedulingResult blocked_result;
  resource::ResourceRequest blocked;
  blocked.app = AppId(2);
  resource::UnitRequestDelta unit;
  unit.slot_id = 0;
  unit.has_def = true;
  unit.def.slot_id = 0;
  unit.def.resources = ResourceVector(150, 1536);
  unit.total_count_delta = 1;
  blocked.units.push_back(unit);
  ASSERT_TRUE(scheduler.ApplyRequest(blocked, &blocked_result).ok());
  EXPECT_TRUE(blocked_result.assignments.empty());

  // org/team asks for 4 x (50,512). Its contention cap — the (50,512)
  // guarantee plus all of org's surplus — is (100,1024), so the grant
  // clamps at 2 units and the placement record must carry the
  // leaf-to-root headroom chain.
  resource::SchedulingResult clamped_result;
  resource::ResourceRequest clamped;
  clamped.app = AppId(1);
  unit.def.resources = ResourceVector(50, 512);
  unit.total_count_delta = 4;
  clamped.units.clear();
  clamped.units.push_back(unit);
  ASSERT_TRUE(scheduler.ApplyRequest(clamped, &clamped_result).ok());
  int64_t granted = 0;
  for (const resource::Assignment& a : clamped_result.assignments) {
    granted += a.count;
  }
  EXPECT_EQ(granted, 2);

  std::vector<DecisionRecord> dump = log.Snapshot();
  const DecisionRecord* chained = nullptr;
  for (const DecisionRecord& r : dump) {
    if (r.kind == DecisionKind::kPlace && r.app == 1 &&
        r.note.rfind("tenant=org/team", 0) == 0) {
      chained = &r;
    }
  }
  ASSERT_NE(chained, nullptr) << "no placement record carries the chain";
  // One hop per bounded ancestor, leafward first; the saturated node is
  // marked. This is exactly what `fuxi explain --tenant` renders.
  EXPECT_NE(chained->note.find(" | org/team guarantee=("),
            std::string::npos)
      << chained->note;
  EXPECT_NE(chained->note.find("[clamped]"), std::string::npos)
      << chained->note;
  EXPECT_NE(chained->note.find(" | org guarantee=("), std::string::npos)
      << chained->note;

  // The note survives the JSON export round-trip unmangled.
  std::string json = ExportAuditJson(dump);
  Result<Json> parsed = Json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(ExportAuditJson(AuditRecordsFromJson(parsed.value())), json);
}

}  // namespace
}  // namespace fuxi::obs
