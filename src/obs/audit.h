#ifndef FUXI_OBS_AUDIT_H_
#define FUXI_OBS_AUDIT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace fuxi::obs {

/// What kind of decision a record documents.
enum class DecisionKind : uint8_t {
  kPlace,         ///< one PlaceDemand invocation (demand-centric)
  kPass,          ///< one SchedulePass over a machine (machine-centric)
  kPreempt,       ///< one TryPreempt sweep for a starved demand
  kRevoke,        ///< one grant takeback (any RevocationReason)
  kMachineEvent,  ///< master-side node event (down, blacklist)
  kAgentKill,     ///< agent killed a worker (capacity / overload)
  kRoute,         ///< submission-router shard choice (incl. spillover)
  kReserve,       ///< planner action (reservation booked/converted/expired)
  kHealth,        ///< SLO watchdog HealthEvent (telemetry rule fired)
};

std::string_view DecisionKindName(DecisionKind kind);

/// Why a candidate examined during a decision did not (fully) grant.
/// This is the rejection-reason taxonomy DESIGN.md §9 documents; every
/// unplaced demand must be explainable as a chain of these.
enum class RejectReason : uint8_t {
  kNone,             ///< not rejected (the candidate granted)
  kAvoided,          ///< machine on the demand's avoid list
  kOffline,          ///< machine offline (dead or blacklisted)
  kNoFreeCapacity,   ///< free pool cannot host a single unit
  kNegativeFitCache, ///< cached no-fit verdict at the current free epoch
  kQuotaHeadroom,    ///< quota admission clamped the grant to zero
  kPassEpochSkip,    ///< pass skipped: nothing changed since fixpoint
  kNoLiveDemands,    ///< pass skipped: nothing waiting anywhere
  kNoFreeMachines,   ///< placement found no machine with free resources
  kCandidateCap,     ///< per-pass candidate cap truncated the walk
  kGrantRevoked,     ///< (chain synthesis) the demand lost a held grant
  kBackfillWouldDelayReservation,  ///< fit clamped to protect a reservation
  kGangPartialFit,   ///< gang member held back / aborted (all-or-nothing)
  kReservationExpired,  ///< advance reservation missed its deadline
};

std::string_view RejectReasonName(RejectReason reason);

/// Locality tier of a candidate: 0 = machine hint, 1 = rack hint,
/// 2 = cluster (kept as a plain int so obs does not depend on
/// resource::LocalityLevel; the values match that enum's order).
std::string_view TierName(uint8_t tier);

/// One candidate examined during a decision. For kPlace/kPreempt
/// records the demand is fixed and `machine` varies; for kPass records
/// the machine is fixed and (app, slot) vary.
struct CandidateOutcome {
  int64_t app = -1;
  uint32_t slot = 0;
  int64_t machine = -1;
  uint8_t tier = 2;
  RejectReason reason = RejectReason::kNone;
  int64_t granted = 0;    ///< units granted (0 when rejected)
  int64_t remaining = 0;  ///< demand units still outstanding afterwards
};

/// One bounded decision-provenance record. Determinism rules match the
/// trace recorder's: ids come from a monotonic counter, times are
/// virtual, and `trace_span` is the deterministic ambient span id at
/// commit time — so audit dumps join against flight-recorder dumps and
/// replay byte-identically from a seed.
struct DecisionRecord {
  uint64_t id = 0;
  double time = 0;          ///< virtual seconds
  DecisionKind kind = DecisionKind::kPlace;
  uint64_t trace_span = 0;  ///< ambient trace span when committed (0 = none)
  int64_t app = -1;         ///< subject demand (kPlace/kPreempt/kRevoke/kAgentKill)
  uint32_t slot = 0;
  int64_t machine = -1;     ///< subject machine (kPass/kRevoke/kMachineEvent/kAgentKill)
  RejectReason reason = RejectReason::kNone;  ///< record-level outcome
  int64_t units = 0;        ///< units revoked / workers killed
  int64_t remaining_before = 0;
  int64_t remaining_after = 0;
  uint32_t candidates_dropped = 0;  ///< outcomes past the per-record cap
  std::string note;         ///< free-form detail (event cause, kill kind)
  std::vector<CandidateOutcome> candidates;

  /// Hard bound on per-record payload so one adversarial decision over
  /// a huge queue cannot blow up the ring's memory.
  static constexpr size_t kMaxCandidates = 64;

  void AddCandidate(const CandidateOutcome& outcome) {
    if (candidates.size() < kMaxCandidates) {
      candidates.push_back(outcome);
    } else {
      ++candidates_dropped;
    }
  }
};

/// Records scheduling-decision provenance into a bounded ring. Strictly
/// observational: committing a record never touches scheduler state, so
/// attaching or detaching the log cannot change any SchedulingResult
/// (the decision-neutrality contract, enforced by the differential
/// suite's audit-on/off byte-identical comparison). Auditing is off
/// when no log is attached: every emitter holds a nullable AuditLog*
/// and assembles records only when it is set.
class AuditLog {
 public:
  AuditLog(sim::Simulator* sim, TraceRecorder* trace,
           size_t capacity = kDefaultCapacity)
      : sim_(sim), trace_(trace), ring_(capacity) {}

  /// Stamps id / virtual time / ambient trace span and retains the
  /// record (oldest-first eviction once the ring is full).
  void Commit(DecisionRecord&& record) {
    record.id = next_id_++;
    if (sim_ != nullptr) record.time = sim_->Now();
    if (trace_ != nullptr) record.trace_span = trace_->current();
    ring_.Push(std::move(record));
  }

  /// Retained records, oldest first.
  std::vector<DecisionRecord> Snapshot() const { return ring_.Snapshot(); }

  uint64_t records_committed() const { return next_id_ - 1; }
  uint64_t overwritten() const { return ring_.overwritten(); }
  size_t capacity() const { return ring_.capacity(); }

  void Clear() {
    ring_.Clear();
    next_id_ = 1;
  }

  static constexpr size_t kDefaultCapacity = 1 << 14;

 private:
  sim::Simulator* sim_;
  TraceRecorder* trace_;
  uint64_t next_id_ = 1;  // 0 is "no record"
  BoundedRing<DecisionRecord> ring_;
};

// --- export / import ---------------------------------------------------

/// Records as one JSON document ({"auditRecords": [...]}) with sorted
/// object keys — deterministic for same-seed replay comparison.
Json AuditJson(const std::vector<DecisionRecord>& records);
std::string ExportAuditJson(const std::vector<DecisionRecord>& records);

/// Parses a document produced by AuditJson (tolerant of absent
/// optional fields). Unknown kind/reason names map to defaults.
std::vector<DecisionRecord> AuditRecordsFromJson(const Json& doc);

// --- queries (shared by `fuxi explain` and the tests) ------------------

/// Records that mention demand (app, slot): as subject, or as a pass
/// candidate. Order preserved (oldest first).
std::vector<const DecisionRecord*> ExplainDemand(
    const std::vector<DecisionRecord>& records, int64_t app, uint32_t slot);

/// Records that mention `machine`: as subject, or as a candidate.
std::vector<const DecisionRecord*> ExplainMachine(
    const std::vector<DecisionRecord>& records, int64_t machine);

/// The rejection-reason chain for demand (app, slot): every negative
/// outcome in record order — candidate rejections, record-level
/// placement failures (kNoFreeMachines), and lost grants synthesized as
/// kGrantRevoked outcomes. An unplaced demand always has a non-empty
/// chain (the `fuxi explain --unplaced` acceptance contract).
std::vector<CandidateOutcome> RejectionChain(
    const std::vector<DecisionRecord>& records, int64_t app, uint32_t slot);

/// Demands with outstanding units as of the last record that mentions
/// them — "explain unplaced" over a finished dump.
struct UnplacedDemand {
  int64_t app = -1;
  uint32_t slot = 0;
  int64_t remaining = 0;
};
std::vector<UnplacedDemand> UnplacedAtEnd(
    const std::vector<DecisionRecord>& records);

}  // namespace fuxi::obs

#endif  // FUXI_OBS_AUDIT_H_
