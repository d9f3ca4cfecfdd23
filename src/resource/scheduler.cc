#include "resource/scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace fuxi::resource {

namespace {

/// Applies `fn` to each machine in `free_machines` starting after
/// `cursor` and wrapping around once. The walk is live, advancing by
/// key: `fn` (a placement attempt) may erase the machine it was just
/// handed when a grant exhausts its free pool, and never inserts — so
/// upper_bound on the previous id always resumes correctly and the
/// rotation needs no snapshot of the set. `fn` returns false to stop.
void ForEachFreeMachineRoundRobin(
    const std::set<MachineId>& free_machines, MachineId cursor,
    const std::function<bool(MachineId)>& fn) {
  auto it = free_machines.upper_bound(cursor);
  while (it != free_machines.end()) {
    MachineId machine = *it;
    if (!fn(machine)) return;
    it = free_machines.upper_bound(machine);
  }
  it = free_machines.begin();
  while (it != free_machines.end() && !(cursor < *it)) {
    MachineId machine = *it;
    if (!fn(machine)) return;
    it = free_machines.upper_bound(machine);
  }
}

}  // namespace

Scheduler::Scheduler(const cluster::ClusterTopology* topology,
                     Options options)
    : topology_(topology), options_(options), tree_(topology) {
  FUXI_CHECK(topology != nullptr);
  machines_.resize(topology->machine_count());
  rack_free_.resize(topology->rack_count());
  for (const cluster::Machine& machine : topology->machines()) {
    MachineState& state = machines_[static_cast<size_t>(machine.id.value())];
    state.online = true;
    state.capacity = machine.capacity;
    state.free = machine.capacity;
    if (!state.free.IsZero()) {
      free_machines_.insert(machine.id);
      rack_free_[static_cast<size_t>(machine.rack.value())].insert(
          machine.id);
    }
  }
  rr_cursor_ = MachineId(0);
}

Status Scheduler::CreateQuotaGroup(const std::string& name,
                                   const cluster::ResourceVector& quota) {
  NoteMutation();
  Status s = fairshare_.CreateNode(name, quota);
  if (fairshare_nodes_gauge_ != nullptr) {
    fairshare_nodes_gauge_->Set(static_cast<double>(fairshare_.node_count()));
  }
  return s;
}

Status Scheduler::CreateTenantNode(const std::string& path,
                                   const cluster::ResourceVector& guarantee,
                                   double weight, int64_t preemption_budget) {
  NoteMutation();
  Status s = fairshare_.CreateNode(path, guarantee,
                                   {weight, preemption_budget});
  if (fairshare_nodes_gauge_ != nullptr) {
    fairshare_nodes_gauge_->Set(static_cast<double>(fairshare_.node_count()));
  }
  return s;
}

Status Scheduler::EnsureTenantLeaf(const std::string& path, double weight) {
  NoteMutation();
  Status s = fairshare_.EnsureLeaf(path, weight);
  if (fairshare_nodes_gauge_ != nullptr) {
    fairshare_nodes_gauge_->Set(static_cast<double>(fairshare_.node_count()));
  }
  return s;
}

Status Scheduler::RegisterApp(AppId app, const std::string& tenant_path) {
  if (apps_.count(app) > 0) {
    return Status::AlreadyExists("app already registered: " +
                                 app.ToString());
  }
  if (!tenant_path.empty()) {
    FUXI_RETURN_IF_ERROR(fairshare_.AssignApp(app, tenant_path));
  }
  NoteMutation();
  apps_.emplace(app, AppState{app, {}});
  return Status::Ok();
}

Status Scheduler::UnregisterApp(AppId app, SchedulingResult* result) {
  auto it = apps_.find(app);
  if (it == apps_.end()) {
    return Status::NotFound("app not registered: " + app.ToString());
  }
  NoteMutation();
  // Revoke every grant (as releases: the app is gone, nothing to
  // restore). The site index yields them in (slot, machine) order; sort
  // to (machine, slot) — the order a per-machine sweep produces, which
  // the replay goldens pin down.
  std::vector<std::pair<MachineId, SlotKey>> to_revoke;
  for (auto site = grant_sites_.lower_bound(SlotKey{app, 0});
       site != grant_sites_.end() && site->first.app == app; ++site) {
    for (MachineId machine : site->second) {
      to_revoke.emplace_back(machine, site->first);
    }
  }
  std::sort(to_revoke.begin(), to_revoke.end());
  for (const auto& [machine, key] : to_revoke) {
    MachineState& state = machines_[static_cast<size_t>(machine.value())];
    auto grant = state.grants.find(key);
    FUXI_CHECK(grant != state.grants.end());
    RevokeGrant(key, machine, grant->second, RevocationReason::kAppRelease,
                result);
  }
  // Clear waiting demand accounting before dropping the demands.
  for (uint32_t slot : it->second.slots) {
    if (PendingDemand* demand = tree_.Find(SlotKey{app, slot})) {
      if (demand->total_remaining > 0) {
        fairshare_.OnWaitingChange(
            app, demand->def.resources * (-demand->total_remaining));
      }
    }
  }
  if (planner_ != nullptr) {
    for (uint32_t slot : it->second.slots) {
      planner_->OnDemandGone(PlanKeyOf(SlotKey{app, slot}));
    }
  }
  tree_.RemoveApp(app);
  if (fairshare_.HasApp(app)) {
    Status s = fairshare_.RemoveApp(app);
    FUXI_CHECK(s.ok()) << s.ToString();
  }
  apps_.erase(it);
  // The revokes marked the freed machines dirty; reschedule them now.
  FlushDirtyPasses(result);
  return Status::Ok();
}

Status Scheduler::ApplyRequest(const ResourceRequest& request,
                               SchedulingResult* result) {
  auto it = apps_.find(request.app);
  if (it == apps_.end()) {
    return Status::NotFound("app not registered: " + request.app.ToString());
  }
  std::vector<PendingDemand*> touched;
  for (const UnitRequestDelta& delta : request.units) {
    FUXI_RETURN_IF_ERROR(ApplyUnitDelta(request.app, delta, &touched));
    it->second.slots.insert(delta.slot_id);
  }
  for (PendingDemand* demand : touched) {
    if (demand->total_remaining > 0) PlaceDemand(demand, result);
  }
  if (options_.enable_preemption) {
    for (PendingDemand* demand : touched) {
      if (demand->total_remaining > 0) TryPreempt(demand, result);
    }
  }
  // A request that carried planning hints gets an immediate planning
  // pass: gangs that fit start now, reservations are booked without
  // waiting for the next roll-up tick.
  if (planner_ != nullptr) {
    bool any_plan = false;
    for (PendingDemand* demand : touched) {
      if (demand->plan.Any()) {
        any_plan = true;
        break;
      }
    }
    if (any_plan) PlannerTick(now_hint_, result);
  }
  return Status::Ok();
}

Status Scheduler::ApplyUnitDelta(AppId app, const UnitRequestDelta& delta,
                                 std::vector<PendingDemand*>* touched) {
  // Malformed planning hints are rejected before the delta touches any
  // state, so a rejected first request leaves no demand behind.
  if (delta.has_plan) {
    if (delta.plan.reservation && delta.plan.estimated_seconds <= 0) {
      return Status::InvalidArgument(
          "advance reservation requires a lifetime estimate");
    }
    if (delta.plan.gang_id != 0 && delta.plan.gang_size == 0) {
      return Status::InvalidArgument(
          "gang member must declare the gang size");
    }
  }
  NoteMutation();
  SlotKey key{app, delta.slot_id};
  PendingDemand* demand = tree_.Find(key);
  if (demand == nullptr) {
    if (!delta.has_def) {
      return Status::InvalidArgument(
          "first request for slot " + std::to_string(delta.slot_id) +
          " of app " + app.ToString() + " must carry the unit definition");
    }
    if (delta.def.resources.AnyNegative() ||
        delta.def.resources.IsZero()) {
      return Status::InvalidArgument("schedule unit size must be positive");
    }
    demand = tree_.GetOrCreate(key, delta.def);
  }

  // Avoid-list edits first: they affect subsequent placement.
  for (const std::string& hostname : delta.avoid_add) {
    FUXI_ASSIGN_OR_RETURN(MachineId machine,
                          topology_->FindByHostname(hostname));
    demand->avoid.insert(machine);
  }
  for (const std::string& hostname : delta.avoid_remove) {
    FUXI_ASSIGN_OR_RETURN(MachineId machine,
                          topology_->FindByHostname(hostname));
    demand->avoid.erase(machine);
  }

  // Locality hints. Under the flat-queue ablation they are ignored and
  // everything competes in the single cluster queue.
  if (options_.locality_tree) {
    for (const LocalityHint& hint : delta.hints) {
      switch (hint.level) {
        case LocalityLevel::kMachine: {
          FUXI_ASSIGN_OR_RETURN(MachineId machine,
                                topology_->FindByHostname(hint.value));
          tree_.AddMachine(demand, machine, hint.count);
          break;
        }
        case LocalityLevel::kRack: {
          FUXI_ASSIGN_OR_RETURN(RackId rack,
                                topology_->FindRackByName(hint.value));
          tree_.AddRack(demand, rack, hint.count);
          break;
        }
        case LocalityLevel::kCluster:
          // Cluster-level hints fold into the total below.
          break;
      }
    }
  }

  // Planning hints (fuxi::planner): the first hinted demand builds the
  // planner; demands without hints never touch it.
  if (delta.has_plan) {
    demand->plan = delta.plan;
    EnsurePlanner();
    auto sites = grant_sites_.find(demand->key);
    bool already_granted =
        sites != grant_sites_.end() && !sites->second.empty();
    planner_->NoteDemand(PlanKeyOf(demand->key),
                         PlannerDemandInfo(demand->key), already_granted);
  }

  if (delta.total_count_delta != 0) {
    int64_t before = demand->total_remaining;
    tree_.AddTotal(demand, delta.total_count_delta);
    int64_t applied = demand->total_remaining - before;
    if (applied != 0) {
      fairshare_.OnWaitingChange(app, demand->def.resources * applied);
    }
    if (before == 0 && demand->total_remaining > 0) {
      demand->waiting_since = now_hint_;
    }
  }
  touched->push_back(demand);
  return Status::Ok();
}

int64_t Scheduler::FitCount(const PendingDemand& demand, MachineState& state,
                            int64_t limit, obs::RejectReason* why) {
  if (!state.online) {
    if (why != nullptr) *why = obs::RejectReason::kOffline;
    return 0;
  }
  if (limit <= 0) {
    if (why != nullptr) *why = obs::RejectReason::kNoFreeCapacity;
    return 0;
  }
  const cluster::ResourceVector& unit = demand.def.resources;
  if (state.no_fit_epoch == state.free_epoch &&
      state.no_fit_unit.FitsIn(unit)) {
    // A unit no larger than this one already failed against the same
    // free vector; by dominance this one fails too.
    if (negfit_hit_counter_ != nullptr) negfit_hit_counter_->Add();
    if (why != nullptr) *why = obs::RejectReason::kNegativeFitCache;
    return 0;
  }
  if (negfit_miss_counter_ != nullptr) negfit_miss_counter_->Add();
  int64_t fit = state.free.DivideBy(unit);
  if (fit <= 0) {
    // Cache the raw no-fit verdict. Only the quota-independent result
    // may be cached: the clamp below moves with quota state, which
    // changes without touching free_epoch.
    state.no_fit_epoch = state.free_epoch;
    state.no_fit_unit = unit;
    if (why != nullptr) *why = obs::RejectReason::kNoFreeCapacity;
    return 0;
  }
  int64_t count = std::min(fit, limit);
  if (options_.enable_quota &&
      fairshare_.AnyCompetingDeficit(demand.key.app)) {
    // While some competing subtree is starved below its guarantee, the
    // app may only grow up to its path's contention cap: the bounded
    // ancestors' guarantees (flat semantics), widened in hierarchical
    // trees by each node's weight share of the parent's surplus.
    const FairShareTree::Node* node = fairshare_.NodeOf(demand.key.app);
    if (node != nullptr) {
      cluster::ResourceVector headroom;
      if (fairshare_.ContentionHeadroom(*node, &headroom)) {
        int64_t clamped = headroom.DivideBy(unit);
        if (clamped < count && fairshare_clamp_counter_ != nullptr) {
          fairshare_clamp_counter_->Add();
        }
        count = std::min(count, clamped);
      }
    }
  }
  count = std::max<int64_t>(count, 0);
  // EASY backfill guard: on a machine carrying reservation claims, a
  // grant may only start now if it provably finishes (its lifetime
  // estimate; forever when unknown) before the booked windows need
  // their resources. Never binds on unreserved machines.
  if (planner_ != nullptr && count > 0) {
    int64_t mid = &state - machines_.data();
    if (planner_->HasReservationWindow(mid)) {
      count = planner_->ClampForBackfill(
          mid, state.free, unit, demand.plan.estimated_seconds, count,
          PlanKeyOf(demand.key));
      if (count == 0) {
        if (why != nullptr) {
          *why = obs::RejectReason::kBackfillWouldDelayReservation;
        }
        return 0;
      }
    }
  }
  if (why != nullptr) {
    *why = count > 0 ? obs::RejectReason::kNone
                     : obs::RejectReason::kQuotaHeadroom;
  }
  return count;
}

void Scheduler::PlaceDemand(PendingDemand* demand, SchedulingResult* result) {
  // Planner-held demands never place instantaneously: gang members
  // wait for the all-or-nothing transaction, reservation demands for
  // their booked window.
  if (PlannerHolds(*demand)) {
    if (audit_ != nullptr) {
      obs::DecisionRecord rec;
      rec.kind = obs::DecisionKind::kPlace;
      rec.app = demand->key.app.value();
      rec.slot = demand->key.slot_id;
      rec.remaining_before = demand->total_remaining;
      rec.remaining_after = demand->total_remaining;
      rec.reason = demand->plan.gang_id != 0
                       ? obs::RejectReason::kGangPartialFit
                       : obs::RejectReason::kBackfillWouldDelayReservation;
      rec.note = demand->plan.gang_id != 0
                     ? "held: gang not started"
                     : "held: waiting for reservation window";
      audit_->Commit(std::move(rec));
    }
    return;
  }
  if (audit_ == nullptr) {
    PlaceDemandWalk(demand, result, nullptr);
    return;
  }
  obs::DecisionRecord rec;
  rec.kind = obs::DecisionKind::kPlace;
  rec.app = demand->key.app.value();
  rec.slot = demand->key.slot_id;
  rec.remaining_before = demand->total_remaining;
  PlaceDemandWalk(demand, result, &rec);
  rec.remaining_after = demand->total_remaining;
  if (rec.remaining_after > 0) {
    // If no examined candidate carries a rejection — the walk found
    // nothing to examine, or every candidate granted partially and the
    // free set ran dry — stamp a record-level reason so the rejection
    // chain for an unplaced demand is never empty.
    bool any_rejection = false;
    for (const obs::CandidateOutcome& c : rec.candidates) {
      if (c.granted == 0 && c.reason != obs::RejectReason::kNone) {
        any_rejection = true;
        break;
      }
    }
    if (!any_rejection) rec.reason = obs::RejectReason::kNoFreeMachines;
    // In hierarchical trees a quota-clamped placement carries its
    // rejection chain: which ancestor saturated, by how much. Flat
    // configurations keep the legacy (empty) note byte-for-byte.
    if (fairshare_.hierarchical()) {
      bool quota_clamped = rec.reason == obs::RejectReason::kQuotaHeadroom;
      for (const obs::CandidateOutcome& c : rec.candidates) {
        if (c.reason == obs::RejectReason::kQuotaHeadroom) {
          quota_clamped = true;
          break;
        }
      }
      if (quota_clamped && rec.note.empty()) {
        rec.note = fairshare_
                       .ExplainHeadroom(demand->key.app,
                                        demand->def.resources)
                       .chain;
      }
    }
  }
  audit_->Commit(std::move(rec));
}

void Scheduler::PlaceDemandWalk(PendingDemand* demand,
                                SchedulingResult* result,
                                obs::DecisionRecord* rec) {
  obs::RejectReason why = obs::RejectReason::kNone;
  obs::RejectReason* whyp = rec != nullptr ? &why : nullptr;
  auto note = [&](MachineId machine, uint8_t tier, int64_t count) {
    if (rec == nullptr) return;
    rec->AddCandidate({rec->app, rec->slot, machine.value(), tier,
                       count > 0 ? obs::RejectReason::kNone : why, count,
                       demand->total_remaining});
  };
  // 1. Machine-level preferences (data locality first). The hint index
  // is a sorted map, so this walks it in id order with no per-call
  // snapshot-and-sort. ConsumeGrant may erase the entry just granted
  // from; the successor is captured first (map erase only invalidates
  // the erased node).
  if (options_.locality_tree && !demand->machine_remaining.empty()) {
    auto it = demand->machine_remaining.begin();
    while (it != demand->machine_remaining.end()) {
      if (demand->total_remaining == 0) return;
      MachineId machine = it->first;
      auto next = std::next(it);
      if (!demand->Avoids(machine)) {
        int64_t limit = std::min(it->second, demand->total_remaining);
        int64_t count = FitCount(
            *demand, machines_[static_cast<size_t>(machine.value())], limit,
            whyp);
        if (count > 0) {
          CommitGrant(demand, machine, count, result);
          tree_.ConsumeGrant(demand, machine, count);
          NoteGrantTier(LocalityLevel::kMachine, count);
        }
        note(machine, 0, count);
      } else if (rec != nullptr) {
        why = obs::RejectReason::kAvoided;
        note(machine, 0, 0);
      }
      it = next;
    }
  }
  // 2. Rack-level preferences. Only machines with free capacity are
  // visited (the per-rack free index; zero-free and offline machines
  // could not grant anyway). Grants erase the granted machine from the
  // index, so the walk advances by key.
  if (options_.locality_tree && !demand->rack_remaining.empty()) {
    auto rack_it = demand->rack_remaining.begin();
    while (rack_it != demand->rack_remaining.end()) {
      RackId rack = rack_it->first;
      auto next_rack = std::next(rack_it);
      const std::set<MachineId>& in_rack =
          rack_free_[static_cast<size_t>(rack.value())];
      auto mit = in_rack.begin();
      while (mit != in_rack.end()) {
        if (demand->total_remaining == 0) return;
        auto entry = demand->rack_remaining.find(rack);
        if (entry == demand->rack_remaining.end()) break;
        MachineId machine = *mit;
        if (!demand->Avoids(machine)) {
          int64_t limit = std::min(entry->second, demand->total_remaining);
          int64_t count = FitCount(
              *demand, machines_[static_cast<size_t>(machine.value())],
              limit, whyp);
          if (count > 0) {
            CommitGrant(demand, machine, count, result);
            tree_.ConsumeGrant(demand, machine, count);
            NoteGrantTier(LocalityLevel::kRack, count);
          }
          note(machine, 1, count);
        } else if (rec != nullptr) {
          why = obs::RejectReason::kAvoided;
          note(machine, 1, 0);
        }
        mit = in_rack.upper_bound(machine);
      }
      rack_it = next_rack;
    }
  }
  // 3. Anywhere in the cluster, round-robin over machines with free
  // resources. Each rotation caps the per-machine grant near the fair
  // share so units spread uniformly (load balance, §3.3); further
  // rotations mop up the remainder on machines with headroom.
  while (demand->total_remaining > 0 && !free_machines_.empty()) {
    int64_t spread_cap = std::max<int64_t>(
        1, demand->total_remaining /
               static_cast<int64_t>(free_machines_.size()));
    bool progressed = false;
    MachineId last_granted = rr_cursor_;
    ForEachFreeMachineRoundRobin(
        free_machines_, rr_cursor_, [&](MachineId machine) {
          if (demand->total_remaining == 0) return false;
          if (demand->Avoids(machine)) {
            if (rec != nullptr) {
              why = obs::RejectReason::kAvoided;
              note(machine, 2, 0);
            }
            return true;
          }
          int64_t limit = std::min(demand->total_remaining, spread_cap);
          int64_t count = FitCount(
              *demand, machines_[static_cast<size_t>(machine.value())],
              limit, whyp);
          if (count > 0) {
            CommitGrant(demand, machine, count, result);
            tree_.ConsumeGrant(demand, machine, count);
            NoteGrantTier(LocalityLevel::kCluster, count);
            last_granted = machine;
            progressed = true;
          }
          note(machine, 2, count);
          return true;
        });
    rr_cursor_ = last_granted;
    if (!progressed) break;
  }
}

void Scheduler::SchedulePass(MachineId machine, SchedulingResult* result) {
  ++scheduling_passes_;
  if (passes_counter_ != nullptr) passes_counter_->Add();
  MachineState& state = machines_[static_cast<size_t>(machine.value())];
  dirty_machines_.erase(machine);
  // A pass over an offline or full machine examines nothing and is not
  // worth a ring slot; skipped and walked passes are recorded.
  if (!state.online || state.free.IsZero()) return;
  obs::DecisionRecord rec;
  const bool record = audit_ != nullptr;
  if (record) {
    rec.kind = obs::DecisionKind::kPass;
    rec.machine = machine.value();
  }
  if (!tree_.HasLiveDemands() || state.last_pass_epoch == world_epoch_) {
    // Nothing is waiting anywhere, or nothing at all changed since this
    // machine's last walk ran to fixpoint — the walk cannot grant.
    ++passes_skipped_;
    if (passes_skipped_counter_ != nullptr) passes_skipped_counter_->Add();
    if (record) {
      rec.reason = !tree_.HasLiveDemands()
                       ? obs::RejectReason::kNoLiveDemands
                       : obs::RejectReason::kPassEpochSkip;
      audit_->Commit(std::move(rec));
    }
    return;
  }
  size_t examined = 0;
  bool truncated = false;
  size_t grants_before = result->assignments.size();
  obs::RejectReason why = obs::RejectReason::kNone;
  std::function<void(const PendingDemand&, LocalityLevel)> on_avoided;
  if (record) {
    on_avoided = [&rec](const PendingDemand& demand, LocalityLevel level) {
      rec.AddCandidate({demand.key.app.value(), demand.key.slot_id, -1,
                        static_cast<uint8_t>(level),
                        obs::RejectReason::kAvoided, 0,
                        demand.total_remaining});
    };
  }
  const bool pruned = tree_.ForEachCandidate(
      machine, state.free,
      [&](PendingDemand* demand, LocalityLevel level) -> int64_t {
        if (candidates_counter_ != nullptr) candidates_counter_->Add();
        if (options_.max_candidates_per_pass > 0 &&
            ++examined > options_.max_candidates_per_pass) {
          truncated = true;
          if (record) {
            rec.AddCandidate({demand->key.app.value(), demand->key.slot_id,
                              -1, static_cast<uint8_t>(level),
                              obs::RejectReason::kCandidateCap, 0,
                              demand->total_remaining});
          }
          return -1;
        }
        if (PlannerHolds(*demand)) {
          if (record) {
            rec.AddCandidate({demand->key.app.value(), demand->key.slot_id,
                              -1, static_cast<uint8_t>(level),
                              obs::RejectReason::kGangPartialFit, 0,
                              demand->total_remaining});
          }
          return 0;
        }
        int64_t limit = demand->total_remaining;
        if (level == LocalityLevel::kMachine) {
          auto it = demand->machine_remaining.find(machine);
          limit = std::min(
              limit, it == demand->machine_remaining.end() ? 0 : it->second);
        } else if (level == LocalityLevel::kRack) {
          RackId rack = topology_->machine(machine).rack;
          auto it = demand->rack_remaining.find(rack);
          limit = std::min(
              limit, it == demand->rack_remaining.end() ? 0 : it->second);
        }
        int64_t count =
            FitCount(*demand, state, limit, record ? &why : nullptr);
        if (count > 0) {
          CommitGrant(demand, machine, count, result);
          NoteGrantTier(level, count);
          // The tree consumes the grant after we return.
        }
        if (record) {
          // The tree decrements total_remaining after we return, so the
          // post-grant remaining is computed here.
          rec.AddCandidate({demand->key.app.value(), demand->key.slot_id,
                            -1, static_cast<uint8_t>(level),
                            count > 0 ? obs::RejectReason::kNone : why,
                            count, demand->total_remaining - count});
        }
        return count;
      },
      on_avoided);
  const bool granted = result->assignments.size() != grants_before;
  if (record && truncated) rec.reason = obs::RejectReason::kCandidateCap;
  // A walk that ended because free fits no live shape lists only the
  // candidates it visited; with no grant that is the pass's verdict.
  if (record && pruned && !granted) {
    rec.reason = obs::RejectReason::kNoFreeCapacity;
  }
  // Only a pass that ran to fixpoint granting nothing is provably
  // idempotent (it mutated no state, so a literal re-run reproduces
  // it); a granting or truncated pass leaves the stale epoch so the
  // next pass re-walks. A pruned pass ran to fixpoint: every candidate
  // it did not visit would have been rejected.
  if (!truncated && !granted) state.last_pass_epoch = world_epoch_;
  if (record) audit_->Commit(std::move(rec));
}

void Scheduler::FlushDirtyPasses(SchedulingResult* result) {
  if (dirty_drain_hist_ != nullptr && !dirty_machines_.empty()) {
    dirty_drain_hist_->Add(static_cast<double>(dirty_machines_.size()));
  }
  while (!dirty_machines_.empty()) {
    // SchedulePass removes the machine from the set.
    SchedulePass(*dirty_machines_.begin(), result);
  }
}

void Scheduler::CommitGrant(PendingDemand* demand, MachineId machine,
                            int64_t count, SchedulingResult* result) {
  FUXI_CHECK_GT(count, 0);
  MachineState& state = machines_[static_cast<size_t>(machine.value())];
  cluster::ResourceVector amount = demand->def.resources * count;
  FUXI_CHECK(amount.FitsIn(state.free))
      << "grant exceeds free pool on machine " << machine.value();
  state.free -= amount;
  SyncFreeIndex(machine, state);
  state.grants[demand->key] += count;
  grant_sites_[demand->key].insert(machine);
  if (grant_sites_gauge_ != nullptr) {
    grant_sites_gauge_->Set(static_cast<double>(grant_sites_.size()));
  }
  total_granted_ += amount;
  fairshare_.OnGrant(demand->key.app, amount);
  fairshare_.OnWaitingChange(demand->key.app,
                             demand->def.resources * (-count));
  result->assignments.push_back(
      Assignment{demand->key.app, demand->key.slot_id, machine, count});
  // Estimated grants become running claims on the machine's timeline:
  // the planner can then promise their release point to backfill math.
  if (planner_ != nullptr && demand->plan.estimated_seconds > 0) {
    planner_->OnGrantCommitted(PlanKeyOf(demand->key), machine.value(),
                               count, demand->def.resources,
                               demand->plan.estimated_seconds);
  }
}

int64_t Scheduler::RevokeGrant(const SlotKey& key, MachineId machine,
                               int64_t count, RevocationReason reason,
                               SchedulingResult* result) {
  MachineState& state = machines_[static_cast<size_t>(machine.value())];
  auto it = state.grants.find(key);
  if (it == state.grants.end() || count <= 0) return 0;
  int64_t revoked = std::min(count, it->second);
  it->second -= revoked;
  if (it->second == 0) {
    state.grants.erase(it);
    auto site = grant_sites_.find(key);
    FUXI_CHECK(site != grant_sites_.end());
    site->second.erase(machine);
    if (site->second.empty()) grant_sites_.erase(site);
  }
  if (grant_sites_gauge_ != nullptr) {
    grant_sites_gauge_->Set(static_cast<double>(grant_sites_.size()));
  }

  PendingDemand* demand = tree_.Find(key);
  FUXI_CHECK(demand != nullptr) << "grant without demand record";
  int64_t remaining_before = demand->total_remaining;
  cluster::ResourceVector amount = demand->def.resources * revoked;
  state.free += amount;
  SyncFreeIndex(machine, state);
  total_granted_ -= amount;
  // The machine's free pool grew without an immediate re-offer; the
  // caller decides when to flush (or runs its own pass, clearing this).
  if (state.online) dirty_machines_.insert(machine);
  fairshare_.OnRevoke(key.app, amount);

  // Involuntary revocations put the demand back in the waiting queues so
  // the application automatically receives replacement resources.
  // Reconcile corrections are voluntary-equivalent: the totals were
  // already reconciled by the caller.
  if (reason != RevocationReason::kAppRelease &&
      reason != RevocationReason::kReconcile) {
    tree_.AddTotal(demand, revoked);
    fairshare_.OnWaitingChange(key.app, amount);
  }
  result->revocations.push_back(
      Revocation{key.app, key.slot_id, machine, revoked, reason});
  if (planner_ != nullptr) {
    planner_->OnGrantReleased(PlanKeyOf(key), machine.value(), revoked);
  }
  if (audit_ != nullptr) {
    obs::DecisionRecord rec;
    rec.kind = obs::DecisionKind::kRevoke;
    rec.app = key.app.value();
    rec.slot = key.slot_id;
    rec.machine = machine.value();
    rec.units = revoked;
    rec.remaining_before = remaining_before;
    rec.remaining_after = demand->total_remaining;
    rec.note = std::string(RevocationReasonName(reason));
    audit_->Commit(std::move(rec));
  }
  return revoked;
}

Status Scheduler::RestoreGrant(AppId app, const ScheduleUnitDef& def,
                               MachineId machine, int64_t count) {
  if (apps_.count(app) == 0) {
    return Status::NotFound("app not registered: " + app.ToString());
  }
  if (count <= 0) return Status::InvalidArgument("count must be positive");
  MachineState& state = machines_[static_cast<size_t>(machine.value())];
  if (!state.online) {
    return Status::FailedPrecondition("machine offline: " +
                                      machine.ToString());
  }
  cluster::ResourceVector amount = def.resources * count;
  if (!amount.FitsIn(state.free)) {
    return Status::ResourceExhausted(
        "restored grant exceeds free capacity on machine " +
        machine.ToString());
  }
  SlotKey key{app, def.slot_id};
  // Ensure the demand record exists (with zero outstanding count) so
  // grant accounting can resolve the unit definition.
  tree_.GetOrCreate(key, def);
  apps_[app].slots.insert(def.slot_id);
  state.free -= amount;
  SyncFreeIndex(machine, state);
  state.grants[key] += count;
  grant_sites_[key].insert(machine);
  total_granted_ += amount;
  fairshare_.OnGrant(app, amount);
  // Failover ordering: when the plan arrived before this agent report,
  // the planner is already tracking the key — the restored grant proves
  // its gang started / reservation converted under the old primary.
  if (planner_ != nullptr) planner_->OnGrantRestored(PlanKeyOf(key));
  return Status::Ok();
}

Status Scheduler::Release(AppId app, uint32_t slot_id, MachineId machine,
                          int64_t count, SchedulingResult* result,
                          RevocationReason reason) {
  SlotKey key{app, slot_id};
  MachineState& state = machines_[static_cast<size_t>(machine.value())];
  auto it = state.grants.find(key);
  if (it == state.grants.end()) {
    return Status::NotFound("no grant for app " + app.ToString() +
                            " slot " + std::to_string(slot_id) +
                            " on machine " + machine.ToString());
  }
  if (count > it->second) {
    return Status::InvalidArgument("release exceeds granted count");
  }
  RevokeGrant(key, machine, count, reason, result);
  // The Figure 3 cycle: freed resources are immediately offered to the
  // waiting queues of this machine / its rack / the cluster.
  SchedulePass(machine, result);
  return Status::Ok();
}

void Scheduler::SetMachineOffline(MachineId machine,
                                  SchedulingResult* result) {
  MachineState& state = machines_[static_cast<size_t>(machine.value())];
  if (!state.online) return;
  std::vector<std::pair<SlotKey, int64_t>> to_revoke(state.grants.begin(),
                                                     state.grants.end());
  for (const auto& [key, count] : to_revoke) {
    RevokeGrant(key, machine, count, RevocationReason::kMachineDown, result);
  }
  state.online = false;
  state.free = cluster::ResourceVector();
  SyncFreeIndex(machine, state);
  dirty_machines_.erase(machine);
  // Reservations booked on this machine must not survive its loss; the
  // planner drops its claims and re-plans the displaced reservations.
  if (planner_ != nullptr) planner_->OnMachineOffline(machine.value());
  // Demands displaced from this machine re-entered the waiting queues;
  // try to place them elsewhere right away.
  std::vector<SlotKey> displaced;
  displaced.reserve(to_revoke.size());
  for (const auto& [key, count] : to_revoke) displaced.push_back(key);
  for (const SlotKey& key : displaced) {
    if (PendingDemand* demand = tree_.Find(key)) {
      if (demand->total_remaining > 0) PlaceDemand(demand, result);
    }
  }
}

void Scheduler::SetMachineOnline(MachineId machine, SchedulingResult* result,
                                 bool run_pass) {
  MachineState& state = machines_[static_cast<size_t>(machine.value())];
  if (state.online) return;
  state.online = true;
  state.free = state.capacity;
  FUXI_CHECK(state.grants.empty());
  SyncFreeIndex(machine, state);
  if (run_pass) SchedulePass(machine, result);
}

/// Runs a deferred scheduling pass (used after failover grant
/// restoration completes on a machine).
void Scheduler::RunSchedulePass(MachineId machine, SchedulingResult* result) {
  SchedulePass(machine, result);
}

void Scheduler::SetMachineCapacity(MachineId machine,
                                   const cluster::ResourceVector& capacity,
                                   SchedulingResult* result) {
  MachineState& state = machines_[static_cast<size_t>(machine.value())];
  cluster::ResourceVector granted = state.capacity - state.free;
  state.capacity = capacity;
  cluster::ResourceVector new_free = capacity - granted;
  // Shrink below current usage: kill grants (deterministically by key
  // order; the paper lets FuxiAgent pick) until usage fits again.
  while (new_free.AnyNegative() && !state.grants.empty()) {
    SlotKey key = state.grants.begin()->first;
    RevokeGrant(key, machine, 1, RevocationReason::kCapacityShrink, result);
    granted = cluster::ResourceVector();
    for (const auto& [grant_key, count] : state.grants) {
      const PendingDemand* demand = tree_.Find(grant_key);
      FUXI_CHECK(demand != nullptr);
      granted += demand->def.resources * count;
    }
    new_free = capacity - granted;
    // RevokeGrant already adjusted state.free; recompute cleanly below.
  }
  state.free = new_free.ClampNonNegative();
  SyncFreeIndex(machine, state);
  // A shrink can strand future bookings above the new ceiling; the
  // planner reconciles eagerly so the overcommit invariant holds at
  // every instant, not just at the next tick.
  if (planner_ != nullptr) {
    planner_->SetMachineCapacity(machine.value(), capacity);
  }
  if (state.online) SchedulePass(machine, result);
}

void Scheduler::TryPreempt(PendingDemand* demand, SchedulingResult* result) {
  if (demand->total_remaining <= 0) return;
  if (PlannerHolds(*demand)) return;
  const FairShareTree::Node* my_node = fairshare_.NodeOf(demand->key.app);
  // Without a tenant node the demand can neither priority-preempt
  // (same-node only) nor quota-preempt — no victim can exist, so skip
  // the scan entirely.
  if (my_node == nullptr) return;
  bool my_deficit =
      options_.enable_quota && fairshare_.PathHasDeficit(*my_node);

  // Collect victim grants: (level, victim priority, machine, key).
  // Level 0 = priority preemption within the same tenant node; level 1
  // = quota preemption against paths borrowing past a guarantee (paper
  // §3.4 order). In hierarchical trees level-1 victims are additionally
  // ordered by dominant resource share, richest subtree first — the DRF
  // arbitration rule; in flat trees every share is left at zero and the
  // comparator degenerates to the legacy order. The walk goes through
  // the grant-site index app by app so that ineligible apps are skipped
  // wholesale; cost is proportional to eligible grants, not cluster
  // size.
  struct Victim {
    int level;
    double dominant;
    Priority priority;
    MachineId machine;
    SlotKey key;
    const FairShareTree::Node* node;
  };
  const bool drf = fairshare_.hierarchical();
  cluster::ResourceVector capacity;
  if (drf) capacity = TotalCapacity();
  fairshare_.BeginPreemptionSweep();
  std::vector<Victim> victims;
  auto it = grant_sites_.begin();
  while (it != grant_sites_.end()) {
    AppId app = it->first.app;
    auto next_app =
        grant_sites_.lower_bound(SlotKey{AppId(app.value() + 1), 0});
    if (app == demand->key.app) {
      it = next_app;
      continue;
    }
    const FairShareTree::Node* victim_node = fairshare_.NodeOf(app);
    bool same_node = victim_node == my_node;
    bool quota_eligible = my_deficit && victim_node != nullptr &&
                          !same_node && fairshare_.PathOverQuota(*victim_node);
    if (!same_node && !quota_eligible) {
      it = next_app;
      continue;
    }
    double dominant = 0.0;
    if (drf && victim_node != nullptr) {
      dominant = fairshare_.DominantShare(*victim_node, capacity);
    }
    for (; it != next_app; ++it) {
      const PendingDemand* victim_demand = tree_.Find(it->first);
      FUXI_CHECK(victim_demand != nullptr);
      int level;
      if (same_node) {
        if (victim_demand->def.priority >= demand->def.priority) continue;
        level = 0;
      } else {
        level = 1;
      }
      for (MachineId machine : it->second) {
        if (demand->Avoids(machine)) continue;
        // Machines carrying reservation claims are off-limits to
        // preemption: the revoke-then-grant shuffle is not covered by
        // the backfill clamp's commit-consistency argument, so keeping
        // the book safe means leaving those machines alone.
        if (planner_ != nullptr &&
            planner_->HasReservationWindow(machine.value())) {
          continue;
        }
        victims.push_back({level, dominant, victim_demand->def.priority,
                           machine, it->first, victim_node});
      }
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              if (a.level != b.level) return a.level < b.level;
              if (a.dominant != b.dominant) return a.dominant > b.dominant;
              if (a.priority != b.priority) return a.priority < b.priority;
              if (a.machine != b.machine) return a.machine < b.machine;
              return a.key < b.key;
            });

  obs::DecisionRecord rec;
  const bool record = audit_ != nullptr;
  if (record) {
    rec.kind = obs::DecisionKind::kPreempt;
    rec.app = demand->key.app.value();
    rec.slot = demand->key.slot_id;
    rec.remaining_before = demand->total_remaining;
  }
  for (const Victim& victim : victims) {
    if (demand->total_remaining <= 0) break;
    MachineState& state =
        machines_[static_cast<size_t>(victim.machine.value())];
    // Revoke victim units one at a time until one of ours fits (or the
    // victim runs out on this machine).
    while (demand->total_remaining > 0) {
      auto grant = state.grants.find(victim.key);
      if (grant == state.grants.end()) break;
      // Per-tenant preemption budgets: once the victim's path spent its
      // per-sweep allowance, this victim is untouchable for the rest of
      // the sweep. Budgets default to unlimited, so the check is
      // vacuous for legacy configurations.
      if (victim.node != nullptr &&
          !fairshare_.PreemptionBudgetAllows(*victim.node)) {
        if (fairshare_budget_denied_counter_ != nullptr) {
          fairshare_budget_denied_counter_->Add();
        }
        break;
      }
      RevocationReason reason = victim.level == 0
                                    ? RevocationReason::kPreemptPriority
                                    : RevocationReason::kPreemptQuota;
      if (RevokeGrant(victim.key, victim.machine, 1, reason, result) == 0) {
        break;
      }
      if (victim.node != nullptr) {
        fairshare_.ChargePreemption(*victim.node, 1);
      }
      int64_t count = FitCount(*demand, state, demand->total_remaining);
      if (count > 0) {
        CommitGrant(demand, victim.machine, count, result);
        tree_.ConsumeGrant(demand, victim.machine, count);
        if (preempt_units_counter_ != nullptr) {
          preempt_units_counter_->Add(static_cast<uint64_t>(count));
        }
        if (record) {
          rec.AddCandidate({rec.app, rec.slot, victim.machine.value(), 2,
                            obs::RejectReason::kNone, count,
                            demand->total_remaining});
        }
      }
    }
  }
  // Preemption leftovers are not re-offered to other demands; drop the
  // dirty marks the revokes above made.
  for (const Victim& victim : victims) {
    dirty_machines_.erase(victim.machine);
  }
  // Only sweeps that actually moved resources take a ring slot — the
  // victim takebacks already produced their own kRevoke records.
  if (record && !rec.candidates.empty()) {
    rec.remaining_after = demand->total_remaining;
    audit_->Commit(std::move(rec));
  }
}

size_t Scheduler::AgeWaitingDemands(double now) {
  now_hint_ = now;
  if (options_.starvation_age_after <= 0) return 0;
  size_t boosted = 0;
  // Collect first: re-keying mutates the queues the demands sit in.
  std::vector<SlotKey> to_boost;
  for (const PendingDemand* demand : tree_.AllDemands()) {
    if (demand->total_remaining <= 0) continue;
    if (now - demand->waiting_since < options_.starvation_age_after) {
      continue;
    }
    if (demand->effective_priority - demand->def.priority >=
        options_.starvation_max_boost) {
      continue;
    }
    to_boost.push_back(demand->key);
  }
  for (const SlotKey& key : to_boost) {
    PendingDemand* demand = tree_.Find(key);
    if (demand == nullptr) continue;
    NoteMutation();
    tree_.SetEffectivePriority(demand, demand->effective_priority + 1);
    demand->waiting_since = now;  // one boost per aging period
    ++boosted;
    // The boosted demand may now beat previous winners; try to place it.
    SchedulingResult result;
    PlaceDemand(demand, &result);
    aged_results_.push_back(std::move(result));
  }
  return boosted;
}

/// Drains scheduling results produced by the last aging sweep (grants
/// made when boosted demands found space).
std::vector<SchedulingResult> Scheduler::TakeAgedResults() {
  return std::move(aged_results_);
}

const MachineState& Scheduler::machine_state(MachineId machine) const {
  FUXI_CHECK(machine.valid());
  return machines_[static_cast<size_t>(machine.value())];
}

MachineState& Scheduler::mutable_machine_state(MachineId machine) {
  FUXI_CHECK(machine.valid());
  return machines_[static_cast<size_t>(machine.value())];
}

cluster::ResourceVector Scheduler::TotalCapacity() const {
  cluster::ResourceVector total;
  for (const MachineState& state : machines_) {
    if (state.online) total += state.capacity;
  }
  return total;
}

cluster::ResourceVector Scheduler::GrantedTo(AppId app) const {
  cluster::ResourceVector total;
  for (auto it = grant_sites_.lower_bound(SlotKey{app, 0});
       it != grant_sites_.end() && it->first.app == app; ++it) {
    const PendingDemand* demand = tree_.Find(it->first);
    FUXI_CHECK(demand != nullptr);
    int64_t units = 0;
    for (MachineId machine : it->second) {
      const MachineState& state =
          machines_[static_cast<size_t>(machine.value())];
      auto grant = state.grants.find(it->first);
      FUXI_CHECK(grant != state.grants.end());
      units += grant->second;
    }
    total += demand->def.resources * units;
  }
  return total;
}

std::vector<Scheduler::GrantEntry> Scheduler::GrantsOf(AppId app) const {
  // The site index is (slot, machine)-ordered already.
  std::vector<GrantEntry> out;
  for (auto it = grant_sites_.lower_bound(SlotKey{app, 0});
       it != grant_sites_.end() && it->first.app == app; ++it) {
    for (MachineId machine : it->second) {
      const MachineState& state =
          machines_[static_cast<size_t>(machine.value())];
      auto grant = state.grants.find(it->first);
      FUXI_CHECK(grant != state.grants.end());
      out.push_back({it->first.slot_id, machine, grant->second});
    }
  }
  return out;
}

int64_t Scheduler::GrantCount(AppId app, uint32_t slot_id,
                              MachineId machine) const {
  const MachineState& state =
      machines_[static_cast<size_t>(machine.value())];
  auto it = state.grants.find(SlotKey{app, slot_id});
  return it == state.grants.end() ? 0 : it->second;
}

bool Scheduler::CheckInvariants() const {
  if (!tree_.CheckInvariants()) return false;
  // Every index is checked against the machine table in place, with no
  // from-scratch copy. The machine loop walks free_machines_ in step
  // (both ascend by machine id) and must reach its end: the index lists
  // exactly the machines with a non-empty free pool.
  auto known = [this](MachineId id) {
    return id.value() >= 0 &&
           static_cast<size_t>(id.value()) < machines_.size();
  };
  auto has_free = [](const MachineState& state) {
    return state.online && !state.free.IsZero();
  };
  // Both tallies are filled in app order, one entry per app.
  auto tally = [](std::vector<FairShareTree::AppAmount>& out, AppId app,
                  const cluster::ResourceVector& amount) {
    if (out.empty() || out.back().app != app) {
      out.push_back({app, cluster::ResourceVector()});
    }
    out.back().amount += amount;
  };
  cluster::ResourceVector granted_total;
  size_t grant_pairs = 0;
  auto free_it = free_machines_.begin();
  for (size_t m = 0; m < machines_.size(); ++m) {
    const MachineState& state = machines_[m];
    MachineId id(static_cast<int64_t>(m));
    cluster::ResourceVector granted;
    for (const auto& [key, count] : state.grants) {
      if (count <= 0) return false;
      const PendingDemand* demand = tree_.Find(key);
      if (demand == nullptr) return false;
      granted += demand->def.resources * count;
    }
    grant_pairs += state.grants.size();
    bool listed = free_it != free_machines_.end() && *free_it == id;
    if (listed) ++free_it;
    if (listed != has_free(state)) return false;
    if (state.online) {
      if (!(granted + state.free == state.capacity)) return false;
      if (state.free.AnyNegative()) return false;
    } else {
      if (!state.grants.empty()) return false;
    }
    granted_total += granted;
  }
  if (free_it != free_machines_.end()) return false;
  if (!(granted_total == total_granted_)) return false;
  // Each rack set may list only free machines of its own rack; with the
  // sizes summing to free_machines_'s, every free machine is listed in
  // its rack.
  size_t rack_free_total = 0;
  for (size_t r = 0; r < rack_free_.size(); ++r) {
    for (MachineId id : rack_free_[r]) {
      if (!known(id)) return false;
      if (!has_free(machines_[static_cast<size_t>(id.value())])) return false;
      if (static_cast<size_t>(topology_->machine(id).rack.value()) != r) {
        return false;
      }
    }
    rack_free_total += rack_free_[r].size();
  }
  if (rack_free_total != free_machines_.size()) return false;
  // grant_sites_ must list exactly the machine grants: every site pair
  // names a grant and the pair counts match. The walk is (app, slot)
  // ordered, so it also sums each app's usage for the fair-share books.
  size_t site_pairs = 0;
  audit_usage_.clear();
  for (const auto& [key, sites] : grant_sites_) {
    if (sites.empty()) return false;
    const PendingDemand* demand = tree_.Find(key);
    if (demand == nullptr) return false;
    int64_t units = 0;
    for (MachineId machine : sites) {
      if (!known(machine)) return false;
      const MachineState& state =
          machines_[static_cast<size_t>(machine.value())];
      auto grant = state.grants.find(key);
      if (grant == state.grants.end()) return false;
      units += grant->second;
    }
    site_pairs += sites.size();
    tally(audit_usage_, key.app, demand->def.resources * units);
  }
  if (site_pairs != grant_pairs) return false;
  // Per-node fair-share conservation: every tenant node's stored
  // usage/waiting must equal the per-app tallies rolled up its subtree.
  audit_waiting_.clear();
  for (const PendingDemand* demand : tree_.AllDemands()) {
    if (demand->total_remaining <= 0) continue;
    tally(audit_waiting_, demand->key.app,
          demand->def.resources * demand->total_remaining);
  }
  return fairshare_.CheckConservation(audit_usage_, audit_waiting_);
}

void Scheduler::SyncFreeIndex(MachineId machine, MachineState& state) {
  NoteMutation();
  ++state.free_epoch;
  bool has_free = state.online && !state.free.IsZero();
  size_t rack = static_cast<size_t>(topology_->machine(machine).rack.value());
  if (has_free) {
    free_machines_.insert(machine);
    rack_free_[rack].insert(machine);
  } else {
    free_machines_.erase(machine);
    rack_free_[rack].erase(machine);
  }
}

void Scheduler::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_registry_ = metrics;
  if (planner_ != nullptr) planner_->set_metrics(metrics);
  if (metrics == nullptr) {
    tier_machine_counter_ = tier_rack_counter_ = tier_cluster_counter_ =
        preempt_units_counter_ = passes_counter_ = passes_skipped_counter_ =
            candidates_counter_ = negfit_hit_counter_ =
                negfit_miss_counter_ = nullptr;
    dirty_drain_hist_ = nullptr;
    grant_sites_gauge_ = nullptr;
    fairshare_nodes_gauge_ = nullptr;
    fairshare_clamp_counter_ = nullptr;
    fairshare_budget_denied_counter_ = nullptr;
    return;
  }
  tier_machine_counter_ = metrics->GetCounter("sched.grant_units.machine");
  tier_rack_counter_ = metrics->GetCounter("sched.grant_units.rack");
  tier_cluster_counter_ = metrics->GetCounter("sched.grant_units.cluster");
  preempt_units_counter_ = metrics->GetCounter("sched.preempt_units");
  passes_counter_ = metrics->GetCounter("sched.schedule_passes");
  passes_skipped_counter_ = metrics->GetCounter("sched.passes_skipped");
  // Candidates handed to a pass's visitor: a deterministic count of the
  // queue walks' work.
  candidates_counter_ = metrics->GetCounter("sched.candidates_visited");
  // PR 3's incremental-index internals, surfaced for snapshots: the
  // negative-fit cache's hit rate, how much freed capacity each batch
  // teardown re-offers, and the live size of the grant-site index.
  negfit_hit_counter_ = metrics->GetCounter("sched.negfit_cache_hits");
  negfit_miss_counter_ = metrics->GetCounter("sched.negfit_cache_misses");
  dirty_drain_hist_ = metrics->GetHistogram("sched.dirty_drain_size");
  grant_sites_gauge_ = metrics->GetGauge("sched.grant_sites");
  grant_sites_gauge_->Set(static_cast<double>(grant_sites_.size()));
  // Fair-share tree instruments: population size, how often the
  // contention clamp actually bit, and preemption-budget denials.
  fairshare_nodes_gauge_ = metrics->GetGauge("fairshare.nodes");
  fairshare_nodes_gauge_->Set(static_cast<double>(fairshare_.node_count()));
  fairshare_clamp_counter_ = metrics->GetCounter("fairshare.headroom_clamps");
  fairshare_budget_denied_counter_ =
      metrics->GetCounter("fairshare.preempt_budget_denials");
}

// ---------------------------------------------------------------------
// fuxi::planner integration (DESIGN.md §12). The planner exists only
// once a demand has carried a planning hint; until then the
// planner_ != nullptr guards through the hot paths are never taken.
// ---------------------------------------------------------------------

void Scheduler::EnsurePlanner() {
  if (planner_ != nullptr) return;
  const std::vector<cluster::Machine>& machines = topology_->machines();
  std::vector<cluster::ResourceVector> capacities;
  std::vector<int64_t> rack_of;
  capacities.reserve(machines.size());
  rack_of.reserve(machines.size());
  for (const cluster::Machine& m : machines) {
    capacities.push_back(m.capacity);
    rack_of.push_back(m.rack.value());
  }
  planner::HostHooks hooks;
  hooks.machine = [this](int64_t machine) {
    const MachineState& state = machines_[static_cast<size_t>(machine)];
    return planner::MachineView{state.online, state.free};
  };
  hooks.commit = [this](const planner::PlanKey& key, int64_t machine,
                        int64_t count) {
    return PlannerCommit(key, machine, count);
  };
  hooks.expire = [this](const planner::PlanKey& key) { PlannerExpire(key); };
  hooks.demand = [this](const planner::PlanKey& key) {
    return PlannerDemandInfo(SlotKey{AppId(key.app), key.slot});
  };
  hooks.all_demands = [this]() {
    std::vector<std::pair<planner::PlanKey, planner::DemandInfo>> out;
    for (const PendingDemand* demand : tree_.AllDemands()) {
      if (!demand->plan.Any()) continue;
      out.emplace_back(PlanKeyOf(demand->key),
                       PlannerDemandInfo(demand->key));
    }
    // AllDemands is already key-ordered; PlanKey order matches SlotKey
    // order, so no re-sort is needed for determinism.
    return out;
  };
  planner_ = std::make_unique<planner::ClusterPlanner>(
      std::move(capacities), std::move(rack_of),
      static_cast<int64_t>(topology_->rack_count()), std::move(hooks));
  planner_->set_audit(audit_);
  if (metrics_registry_ != nullptr) planner_->set_metrics(metrics_registry_);
}

int64_t Scheduler::PlannerCommit(const planner::PlanKey& pkey,
                                 int64_t machine_raw, int64_t count) {
  SlotKey key{AppId(pkey.app), pkey.slot};
  PendingDemand* demand = tree_.Find(key);
  if (demand == nullptr || count <= 0) return 0;
  MachineState& state = machines_[static_cast<size_t>(machine_raw)];
  if (!state.online) return 0;
  int64_t n = std::min(count, demand->total_remaining);
  n = std::min(n, state.free.DivideBy(demand->def.resources));
  if (n <= 0) return 0;
  // A planner commit deliberately bypasses the quota headroom clamp:
  // the reservation was promised when it was booked, and capping here
  // would strand the booked window. Quota *accounting* still flows
  // through CommitGrant (OnGrant / OnWaitingChange), so usage totals
  // stay truthful and later quota preemption can claw back excess.
  MachineId machine(machine_raw);
  FUXI_CHECK(planner_result_ != nullptr)
      << "planner commit outside PlannerTick";
  CommitGrant(demand, machine, n, planner_result_);
  tree_.ConsumeGrant(demand, machine, n);
  NoteGrantTier(LocalityLevel::kCluster, n);
  return n;
}

void Scheduler::PlannerExpire(const planner::PlanKey& pkey) {
  SlotKey key{AppId(pkey.app), pkey.slot};
  PendingDemand* demand = tree_.Find(key);
  if (demand == nullptr || demand->total_remaining <= 0) return;
  NoteMutation();
  int64_t remaining = demand->total_remaining;
  fairshare_.OnWaitingChange(key.app, demand->def.resources * (-remaining));
  tree_.AddTotal(demand, -remaining);
}

planner::DemandInfo Scheduler::PlannerDemandInfo(const SlotKey& key) const {
  planner::DemandInfo info;
  const PendingDemand* demand = tree_.Find(key);
  if (demand == nullptr) return info;
  info.exists = true;
  info.unit = demand->def.resources;
  info.remaining = demand->total_remaining;
  info.priority = static_cast<int32_t>(demand->effective_priority);
  info.seq = demand->enqueue_seq;
  info.estimate = demand->plan.estimated_seconds;
  info.reserve_start = demand->plan.reserve_start;
  info.deadline = demand->plan.deadline;
  info.gang_id = demand->plan.gang_id;
  info.gang_size = demand->plan.gang_size;
  info.reservation = demand->plan.reservation;
  return info;
}

void Scheduler::PlannerTick(double now, SchedulingResult* result) {
  if (planner_ == nullptr) return;
  now_hint_ = std::max(now_hint_, now);
  planner_result_ = result;
  planner_->Tick(now_hint_);
  planner_result_ = nullptr;
}

bool Scheduler::PlannerOvercommitOk() const {
  return planner_ == nullptr || planner_->CheckNoOvercommit();
}

bool Scheduler::PlannerGangAtomicityOk() const {
  if (planner_ == nullptr) return true;
  return planner_->CheckGangAtomicity([this](const planner::PlanKey& pkey) {
    SlotKey key{AppId(pkey.app), pkey.slot};
    auto site = grant_sites_.find(key);
    if (site == grant_sites_.end()) return int64_t{0};
    int64_t total = 0;
    for (MachineId machine : site->second) {
      const MachineState& state =
          machines_[static_cast<size_t>(machine.value())];
      auto it = state.grants.find(key);
      if (it != state.grants.end()) total += it->second;
    }
    return total;
  });
}

}  // namespace fuxi::resource
