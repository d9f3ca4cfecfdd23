#include "resource/locality_tree.h"

#include <algorithm>

#include "common/logging.h"

namespace fuxi::resource {

LocalityTree::LocalityTree(const cluster::ClusterTopology* topology)
    : topology_(topology) {
  FUXI_CHECK(topology != nullptr);
}

PendingDemand* LocalityTree::GetOrCreate(const SlotKey& key,
                                         const ScheduleUnitDef& def) {
  auto it = demands_.find(key);
  if (it != demands_.end()) return it->second.get();
  auto demand = std::make_unique<PendingDemand>();
  demand->key = key;
  demand->def = def;
  demand->effective_priority = def.priority;
  demand->enqueue_seq = next_seq_++;
  PendingDemand* ptr = demand.get();
  demands_.emplace(key, std::move(demand));
  by_key_.emplace(key, ptr);
  return ptr;
}

PendingDemand* LocalityTree::Find(const SlotKey& key) {
  auto it = demands_.find(key);
  return it == demands_.end() ? nullptr : it->second.get();
}

const PendingDemand* LocalityTree::Find(const SlotKey& key) const {
  auto it = demands_.find(key);
  return it == demands_.end() ? nullptr : it->second.get();
}

void LocalityTree::AddTotal(PendingDemand* demand, int64_t delta) {
  int64_t old_total = demand->total_remaining;
  int64_t new_total = std::max<int64_t>(0, old_total + delta);
  demand->total_remaining = new_total;
  if (old_total == 0 && new_total > 0) {
    // Demand becomes live: enter the cluster queue plus every node it
    // has a positive preference for.
    cluster_queue_.insert(EntryFor(*demand));
    for (const auto& [machine, count] : demand->machine_remaining) {
      if (count > 0) machine_queues_[machine].insert(EntryFor(*demand));
    }
    for (const auto& [rack, count] : demand->rack_remaining) {
      if (count > 0) rack_queues_[rack].insert(EntryFor(*demand));
    }
    CountLiveShape(demand->def.resources, +1);
  } else if (old_total > 0 && new_total == 0) {
    EraseFromAllQueues(*demand);
    CountLiveShape(demand->def.resources, -1);
  }
}

void LocalityTree::AddMachine(PendingDemand* demand, MachineId machine,
                              int64_t delta) {
  int64_t& slot = demand->machine_remaining[machine];
  int64_t old_count = slot;
  slot = std::max<int64_t>(0, old_count + delta);
  bool live = demand->total_remaining > 0;
  if (live && old_count == 0 && slot > 0) {
    machine_queues_[machine].insert(EntryFor(*demand));
  } else if (old_count > 0 && slot == 0) {
    auto it = machine_queues_.find(machine);
    if (it != machine_queues_.end()) it->second.erase(EntryFor(*demand));
  }
  if (slot == 0) demand->machine_remaining.erase(machine);
}

void LocalityTree::AddRack(PendingDemand* demand, RackId rack,
                           int64_t delta) {
  int64_t& slot = demand->rack_remaining[rack];
  int64_t old_count = slot;
  slot = std::max<int64_t>(0, old_count + delta);
  bool live = demand->total_remaining > 0;
  if (live && old_count == 0 && slot > 0) {
    rack_queues_[rack].insert(EntryFor(*demand));
  } else if (old_count > 0 && slot == 0) {
    auto it = rack_queues_.find(rack);
    if (it != rack_queues_.end()) it->second.erase(EntryFor(*demand));
  }
  if (slot == 0) demand->rack_remaining.erase(rack);
}

void LocalityTree::ConsumeGrant(PendingDemand* demand, MachineId machine,
                                int64_t count) {
  FUXI_CHECK_GT(count, 0);
  FUXI_CHECK_LE(count, demand->total_remaining);
  // Consume the machine- and rack-level preferences along the path
  // before the total, so queue membership updates see consistent state.
  AddMachine(demand, machine, -count);
  AddRack(demand, topology_->machine(machine).rack, -count);
  AddTotal(demand, -count);
}

void LocalityTree::SetEffectivePriority(PendingDemand* demand,
                                        Priority priority) {
  if (demand->effective_priority == priority) return;
  bool live = demand->total_remaining > 0;
  if (live) EraseFromAllQueues(*demand);
  demand->effective_priority = priority;
  if (live) SyncQueues(demand);
}

void LocalityTree::Remove(const SlotKey& key) {
  auto it = demands_.find(key);
  if (it == demands_.end()) return;
  if (it->second->total_remaining > 0) {
    EraseFromAllQueues(*it->second);
    CountLiveShape(it->second->def.resources, -1);
  }
  by_key_.erase(key);
  demands_.erase(it);
}

size_t LocalityTree::RemoveApp(AppId app) {
  size_t removed = 0;
  auto it = by_key_.lower_bound(SlotKey{app, 0});
  while (it != by_key_.end() && it->first.app == app) {
    SlotKey key = (it++)->first;  // Remove erases this entry
    Remove(key);
    ++removed;
  }
  return removed;
}

LocalityLevel LocalityTree::WaitLevelFor(const PendingDemand& demand,
                                         MachineId machine) const {
  auto mit = demand.machine_remaining.find(machine);
  if (mit != demand.machine_remaining.end() && mit->second > 0) {
    return LocalityLevel::kMachine;
  }
  RackId rack = topology_->machine(machine).rack;
  auto rit = demand.rack_remaining.find(rack);
  if (rit != demand.rack_remaining.end() && rit->second > 0) {
    return LocalityLevel::kRack;
  }
  return LocalityLevel::kCluster;
}

bool LocalityTree::FitsAnyLiveShape(
    const cluster::ResourceVector& free) const {
  for (const LiveShape& shape : live_shapes_) {
    if (free.DivideBy(shape.unit) > 0) return true;
  }
  return false;
}

bool LocalityTree::ForEachCandidate(
    MachineId machine, const cluster::ResourceVector& free,
    const std::function<int64_t(PendingDemand*, LocalityLevel)>& fn,
    const std::function<void(const PendingDemand&, LocalityLevel)>&
        on_avoided) {
  // Free only shrinks within the pass, so once it fits no live shape
  // every remaining candidate would be rejected: end the walk here.
  if (!FitsAnyLiveShape(free)) return true;
  RackId rack = topology_->machine(machine).rack;
  std::unordered_set<SlotKey, SlotKeyHash> skipped;

  // The queue objects are stable for the duration of the pass: consuming
  // grants only erases entries, it never creates a machine/rack queue,
  // so the lookups can be hoisted out of the candidate loop.
  const Queue* machine_queue = nullptr;
  auto mq = machine_queues_.find(machine);
  if (mq != machine_queues_.end()) machine_queue = &mq->second;
  const Queue* rack_queue = nullptr;
  auto rq = rack_queues_.find(rack);
  if (rq != rack_queues_.end()) rack_queue = &rq->second;

  // Per-queue resume markers. Once an entry is found ineligible —
  // skipped by `fn` (and a skip is final for the whole pass) or on the
  // demand's avoid list (static during the pass) — every later scan of
  // that queue restarts after it instead of re-walking the prefix. This
  // keeps a deep-queue pass linear in the queue length instead of
  // quadratic in the number of unplaceable demands.
  struct Cursor {
    bool active = false;
    QueueEntry resume{};
  };
  Cursor cursors[3];

  auto first_eligible = [&](const Queue& queue, Cursor* cursor,
                            LocalityLevel level) -> const QueueEntry* {
    auto it = cursor->active ? queue.upper_bound(cursor->resume)
                             : queue.begin();
    for (; it != queue.end(); ++it) {
      const QueueEntry& entry = *it;
      if (skipped.count(entry.key) > 0) {
        cursor->resume = entry;
        cursor->active = true;
        continue;
      }
      const PendingDemand* demand = Find(entry.key);
      FUXI_CHECK(demand != nullptr);
      if (demand->Avoids(machine)) {
        // The cursor makes this skip final for the pass, so the
        // observer fires at most once per queue for this demand.
        if (on_avoided) on_avoided(*demand, level);
        cursor->resume = entry;
        cursor->active = true;
        continue;
      }
      return &entry;
    }
    return nullptr;
  };

  while (true) {
    // Heads of the three queues, in level-precedence order so that
    // machine-level waiters win priority ties (paper §3.3).
    struct Candidate {
      const QueueEntry* entry;
      LocalityLevel level;
    };
    Candidate candidates[3] = {
        {machine_queue ? first_eligible(*machine_queue, &cursors[0],
                                        LocalityLevel::kMachine)
                       : nullptr,
         LocalityLevel::kMachine},
        {rack_queue ? first_eligible(*rack_queue, &cursors[1],
                                     LocalityLevel::kRack)
                    : nullptr,
         LocalityLevel::kRack},
        {first_eligible(cluster_queue_, &cursors[2],
                        LocalityLevel::kCluster),
         LocalityLevel::kCluster},
    };

    const Candidate* best = nullptr;
    for (const Candidate& c : candidates) {
      if (c.entry == nullptr) continue;
      if (best == nullptr) {
        best = &c;
        continue;
      }
      // Higher priority wins; at equal priority the earlier (lower)
      // level in the candidates array already holds `best`, so only a
      // strictly higher priority displaces it. Among same-priority
      // entries of the same level the set order (seq) already applies.
      if (c.entry->priority > best->entry->priority) best = &c;
    }
    if (best == nullptr) return false;

    PendingDemand* demand = Find(best->entry->key);
    FUXI_CHECK(demand != nullptr);
    int64_t granted = fn(demand, best->level);
    if (granted < 0) return false;
    if (granted == 0) {
      skipped.insert(best->entry->key);
      continue;
    }
    ConsumeGrant(demand, machine, granted);
    if (!FitsAnyLiveShape(free)) return true;
  }
}

int64_t LocalityTree::TotalWaitingUnits() const {
  int64_t total = 0;
  for (const auto& [key, demand] : demands_) {
    total += demand->total_remaining;
  }
  return total;
}

LocalityTree::DemandRange LocalityTree::DemandsOf(AppId app) const {
  auto first = by_key_.lower_bound(SlotKey{app, 0});
  auto last = first;
  while (last != by_key_.end() && last->first.app == app) ++last;
  return {first, last};
}

bool LocalityTree::CheckInvariants() const {
  if (by_key_.size() != demands_.size()) return false;
  for (const auto& [key, demand] : by_key_) {
    auto it = demands_.find(key);
    if (it == demands_.end() || it->second.get() != demand) return false;
    if (demand->key != key) return false;
  }
  for (const auto& [key, demand] : demands_) {
    if (demand->total_remaining < 0) return false;
    bool live = demand->total_remaining > 0;
    if (live != (cluster_queue_.count(EntryFor(*demand)) > 0)) return false;
    for (const auto& [machine, count] : demand->machine_remaining) {
      if (count <= 0) return false;  // zero entries must be erased
      auto it = machine_queues_.find(machine);
      bool queued = it != machine_queues_.end() &&
                    it->second.count(EntryFor(*demand)) > 0;
      if (queued != live) return false;
    }
    for (const auto& [rack, count] : demand->rack_remaining) {
      if (count <= 0) return false;
      auto it = rack_queues_.find(rack);
      bool queued =
          it != rack_queues_.end() && it->second.count(EntryFor(*demand)) > 0;
      if (queued != live) return false;
    }
  }
  // The live-shape table equals a recount over the live demands.
  std::vector<LiveShape> recount;
  for (const auto& [key, demand] : by_key_) {
    if (demand->total_remaining <= 0) continue;
    auto it = std::ranges::find(recount, demand->def.resources,
                                &LiveShape::unit);
    if (it == recount.end()) {
      recount.push_back({demand->def.resources, 1});
    } else {
      ++it->demands;
    }
  }
  if (!std::ranges::is_permutation(recount, live_shapes_)) return false;
  // Every queue entry must reference a live demand with matching counts.
  auto check_queue = [&](const Queue& queue) {
    for (const QueueEntry& entry : queue) {
      const PendingDemand* demand = Find(entry.key);
      if (demand == nullptr) return false;
      if (demand->total_remaining <= 0) return false;
      if (demand->effective_priority != entry.priority) return false;
    }
    return true;
  };
  if (!check_queue(cluster_queue_)) return false;
  for (const auto& [machine, queue] : machine_queues_) {
    if (!check_queue(queue)) return false;
  }
  for (const auto& [rack, queue] : rack_queues_) {
    if (!check_queue(queue)) return false;
  }
  return true;
}

void LocalityTree::SyncQueues(PendingDemand* demand) {
  // Re-derives queue membership from counts; only used after bulk edits.
  EraseFromAllQueues(*demand);
  if (demand->total_remaining <= 0) return;
  cluster_queue_.insert(EntryFor(*demand));
  for (const auto& [machine, count] : demand->machine_remaining) {
    if (count > 0) machine_queues_[machine].insert(EntryFor(*demand));
  }
  for (const auto& [rack, count] : demand->rack_remaining) {
    if (count > 0) rack_queues_[rack].insert(EntryFor(*demand));
  }
}

void LocalityTree::CountLiveShape(const cluster::ResourceVector& unit,
                                  int64_t delta) {
  auto it = std::ranges::find(live_shapes_, unit, &LiveShape::unit);
  if (it == live_shapes_.end()) {
    FUXI_CHECK_GT(delta, 0);
    live_shapes_.push_back({unit, delta});
    return;
  }
  it->demands += delta;
  FUXI_CHECK_GE(it->demands, 0);
  if (it->demands == 0) live_shapes_.erase(it);
}

void LocalityTree::EraseFromAllQueues(const PendingDemand& demand) {
  QueueEntry entry = EntryFor(demand);
  cluster_queue_.erase(entry);
  for (const auto& [machine, count] : demand.machine_remaining) {
    auto it = machine_queues_.find(machine);
    if (it != machine_queues_.end()) it->second.erase(entry);
  }
  for (const auto& [rack, count] : demand.rack_remaining) {
    auto it = rack_queues_.find(rack);
    if (it != rack_queues_.end()) it->second.erase(entry);
  }
}

}  // namespace fuxi::resource
