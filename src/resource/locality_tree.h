#ifndef FUXI_RESOURCE_LOCALITY_TREE_H_
#define FUXI_RESOURCE_LOCALITY_TREE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ranges>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/topology.h"
#include "common/ids.h"
#include "resource/request.h"

namespace fuxi::resource {

/// Identifies one application's demand stream for one ScheduleUnit.
struct SlotKey {
  AppId app;
  uint32_t slot_id = 0;

  friend bool operator==(const SlotKey& a, const SlotKey& b) {
    return a.app == b.app && a.slot_id == b.slot_id;
  }
  friend bool operator<(const SlotKey& a, const SlotKey& b) {
    if (a.app != b.app) return a.app < b.app;
    return a.slot_id < b.slot_id;
  }
};

struct SlotKeyHash {
  size_t operator()(const SlotKey& k) const {
    return std::hash<int64_t>()(k.app.value()) * 1000003u ^ k.slot_id;
  }
};

/// Ordering functor for the persistent hint indexes. It counts every
/// invocation so tests can prove the fast path no longer re-sorts
/// unchanged hints on each placement: a std::map keeps its keys sorted
/// permanently, so iterating preferences costs zero comparisons, versus
/// the old rebuild-and-std::sort which paid O(k log k) per call.
template <typename Id>
struct InstrumentedIdLess {
  inline static thread_local uint64_t comparisons = 0;
  bool operator()(const Id& a, const Id& b) const {
    ++comparisons;
    return a < b;
  }
};

/// One unsatisfied ScheduleUnit demand queued in the locality tree
/// (Figure 5's "App1: P1, 4" entries). `total_remaining` is the
/// cluster-level outstanding count; per-machine/rack counts cap how many
/// units the application wants from that subtree. A grant from machine M
/// decrements M's count, M's rack count and the total together.
///
/// The per-machine/rack preference indexes are *sorted* maps: placement
/// walks them in id order directly instead of snapshotting the keys and
/// re-sorting on every PlaceDemand call.
struct PendingDemand {
  SlotKey key;
  ScheduleUnitDef def;
  uint64_t enqueue_seq = 0;  ///< FIFO tiebreak among equal priorities
  /// Effective priority used for queue ordering; normally equals
  /// def.priority, but starvation aging may raise it (§7 future work:
  /// "guard against starvation in corner cases").
  Priority effective_priority = 0;
  /// When the demand last became non-empty (for starvation aging).
  double waiting_since = 0;

  int64_t total_remaining = 0;
  std::map<MachineId, int64_t, InstrumentedIdLess<MachineId>>
      machine_remaining;
  std::map<RackId, int64_t, InstrumentedIdLess<RackId>> rack_remaining;
  /// Machines this application refuses (its bad-node list).
  std::unordered_set<MachineId> avoid;

  /// Planner metadata (fuxi::planner): lifetime estimate, reservation /
  /// gang flags. Defaulted (Any() == false) for legacy demands.
  PlanningHints plan;

  bool Avoids(MachineId machine) const { return avoid.count(machine) > 0; }
};

/// The scheduler's waiting-queue structure (paper §3.3): one queue per
/// machine, per rack, and for the whole cluster. An application waits in
/// every queue it has a positive count for. When resource frees on a
/// machine, only that machine's queue, its rack's queue and the cluster
/// queue are consulted — this locality-scoped incremental re-scheduling
/// is what makes decisions micro/millisecond-fast regardless of cluster
/// size.
class LocalityTree {
 public:
  /// Every demand (drained ones too), ordered by SlotKey.
  using DemandIndex = std::map<SlotKey, PendingDemand*>;
  using DemandRange = std::ranges::subrange<DemandIndex::const_iterator>;

  explicit LocalityTree(const cluster::ClusterTopology* topology);

  /// Returns the demand for `key`, creating it (with `def`) if absent.
  PendingDemand* GetOrCreate(const SlotKey& key, const ScheduleUnitDef& def);

  /// Returns the demand for `key` or nullptr.
  PendingDemand* Find(const SlotKey& key);
  const PendingDemand* Find(const SlotKey& key) const;

  /// Applies a delta to the cluster-level outstanding count (clamped at
  /// zero) and repositions the demand in the queues.
  void AddTotal(PendingDemand* demand, int64_t delta);

  /// Applies a delta to a machine-level preferred count.
  void AddMachine(PendingDemand* demand, MachineId machine, int64_t delta);

  /// Applies a delta to a rack-level preferred count.
  void AddRack(PendingDemand* demand, RackId rack, int64_t delta);

  /// Consumes `count` granted units out of machine `machine`:
  /// decrements the machine / rack / total counters together and
  /// dequeues emptied entries.
  void ConsumeGrant(PendingDemand* demand, MachineId machine, int64_t count);

  /// Changes a demand's effective priority (starvation aging): the
  /// entry is re-keyed in every queue it waits in.
  void SetEffectivePriority(PendingDemand* demand, Priority priority);

  /// Drops the demand from all queues and destroys it.
  void Remove(const SlotKey& key);

  /// Removes every demand of `app`; returns how many were dropped.
  size_t RemoveApp(AppId app);

  /// The level at which `demand` waits for machine `machine` — machine
  /// queue beats rack queue beats cluster queue for tie-breaking.
  /// Returns kCluster when only the total is positive.
  LocalityLevel WaitLevelFor(const PendingDemand& demand,
                             MachineId machine) const;

  /// Candidate visitor for a scheduling pass on `machine`, whose free
  /// pool is `free`. Candidates are presented in scheduling order:
  /// priority descending, then machine-level waiters before rack-level
  /// before cluster-level, then enqueue order. `fn` returns how many
  /// units it granted (0 = cannot place now, skip this demand; -1 = stop
  /// the pass). Granted units are consumed from the tree before the next
  /// candidate is chosen. `on_avoided`, when set, observes each queued
  /// demand the walk passes over because `machine` is on its avoid list
  /// (at most once per queue per pass) — decision-provenance only, it
  /// cannot influence the walk.
  ///
  /// The walk ends early, before the first candidate and again after
  /// each grant, once `free.DivideBy(unit) == 0` for every live unit
  /// shape: `fn` would reject every remaining candidate by the raw
  /// no-fit test. That is sound because `free` refers to the machine's
  /// pool and, within one pass, only a grant writes it, and a grant only
  /// shrinks it. The test is DivideBy, the predicate a fit count uses,
  /// not FitsIn: the two differ when `free` is negative in a dimension
  /// the unit does not use. Returns true when the walk ended this way.
  bool ForEachCandidate(
      MachineId machine, const cluster::ResourceVector& free,
      const std::function<int64_t(PendingDemand*, LocalityLevel)>& fn,
      const std::function<void(const PendingDemand&, LocalityLevel)>&
          on_avoided = {});

  /// True when any demand has outstanding units — the cluster queue
  /// holds every live demand, so this is O(1). Scheduling passes use it
  /// to skip queue walks entirely on an idle tree; a walk that does run
  /// still ends as soon as no live unit shape fits (ForEachCandidate).
  bool HasLiveDemands() const { return !cluster_queue_.empty(); }

  /// True when `free` holds at least one unit of some live demand's
  /// shape (`free.DivideBy(unit) > 0`). O(distinct live shapes).
  bool FitsAnyLiveShape(const cluster::ResourceVector& free) const;

  /// Sum over demands of total_remaining (unit counts, not resources).
  int64_t TotalWaitingUnits() const;

  /// Every demand, in key order (deterministic): a view of the key
  /// index, so walking it allocates nothing. Drained demands
  /// (total_remaining == 0) are included: they keep their preference
  /// counts and avoid list until removed, so callers that only want
  /// waiting demands filter on total_remaining themselves.
  auto AllDemands() const { return std::views::values(by_key_); }

  /// The demands of one application, drained ones included, in slot
  /// order: the `lower_bound(SlotKey{app, 0})` range of the key index,
  /// so the walk costs the app's own demands, not the cluster's.
  /// Iterates as (SlotKey, PendingDemand*) pairs; invalidated by
  /// GetOrCreate/Remove/RemoveApp of the same app.
  DemandRange DemandsOf(AppId app) const;

  size_t demand_count() const { return demands_.size(); }

  /// Validates internal queue/index consistency (including that the key
  /// index lists exactly the demands); used by property tests.
  bool CheckInvariants() const;

 private:
  /// Queue entries sort by priority (desc) then enqueue_seq (asc).
  struct QueueEntry {
    Priority priority;
    uint64_t seq;
    SlotKey key;

    friend bool operator<(const QueueEntry& a, const QueueEntry& b) {
      if (a.priority != b.priority) return a.priority > b.priority;
      if (a.seq != b.seq) return a.seq < b.seq;
      return a.key < b.key;
    }
  };
  using Queue = std::set<QueueEntry>;

  QueueEntry EntryFor(const PendingDemand& demand) const {
    return QueueEntry{demand.effective_priority, demand.enqueue_seq,
                      demand.key};
  }

  /// One distinct unit shape among live demands and how many live
  /// demands carry it. A demand's def never changes after GetOrCreate,
  /// so the table moves only when a demand enters or leaves the cluster
  /// queue.
  struct LiveShape {
    cluster::ResourceVector unit;
    int64_t demands = 0;

    friend bool operator==(const LiveShape&, const LiveShape&) = default;
  };

  void SyncQueues(PendingDemand* demand);
  void EraseFromAllQueues(const PendingDemand& demand);
  /// Adds `delta` (+1 or -1) live demands of shape `unit`; a shape whose
  /// count reaches zero leaves the table.
  void CountLiveShape(const cluster::ResourceVector& unit, int64_t delta);

  const cluster::ClusterTopology* topology_;
  uint64_t next_seq_ = 0;

  std::unordered_map<SlotKey, std::unique_ptr<PendingDemand>, SlotKeyHash>
      demands_;
  /// Ordered view of demands_ for key-order walks; hash lookups stay on
  /// demands_, which placement's Find() calls hit far more often.
  DemandIndex by_key_;
  std::unordered_map<MachineId, Queue> machine_queues_;
  std::unordered_map<RackId, Queue> rack_queues_;
  Queue cluster_queue_;
  std::vector<LiveShape> live_shapes_;
};

}  // namespace fuxi::resource

#endif  // FUXI_RESOURCE_LOCALITY_TREE_H_
