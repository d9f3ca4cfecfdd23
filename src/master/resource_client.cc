#include "master/resource_client.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "master/fuxi_master.h"

namespace fuxi::master {

namespace {

/// Finds (or appends) the pending delta entry for `slot`.
resource::UnitRequestDelta* PendingUnit(resource::RequestMessage* pending,
                                        uint32_t slot) {
  for (resource::UnitRequestDelta& unit : pending->delta.units) {
    if (unit.slot_id == slot) return &unit;
  }
  pending->delta.units.emplace_back();
  pending->delta.units.back().slot_id = slot;
  return &pending->delta.units.back();
}

}  // namespace

ResourceClient::ResourceClient(sim::Simulator* simulator,
                               net::Network* network,
                               coord::LockService* locks, NodeId self,
                               AppId app, Options options,
                               uint64_t incarnation)
    : sim_(simulator),
      network_(network),
      locks_(locks),
      self_(self),
      app_(app),
      options_(std::move(options)),
      master_lock_(options_.master_lock.empty() ? FuxiMaster::kMasterLock
                                                : options_.master_lock),
      incarnation_(incarnation),
      // Jitter seeds derived from stable identity so replays of the
      // same (app, node) produce the same retry schedule.
      resync_backoff_(options_.retry_backoff,
                      (static_cast<uint64_t>(app.value()) << 20) ^
                          static_cast<uint64_t>(self.value()) ^
                          0x9E3779B97F4A7C15ull),
      flush_backoff_(options_.retry_backoff,
                     (static_cast<uint64_t>(app.value()) << 20) ^
                         static_cast<uint64_t>(self.value())) {}

void ResourceClient::Start(net::Endpoint* endpoint) {
  FUXI_CHECK(!running_);
  running_ = true;
  ++life_;
  // ReplaceHandle, not Handle: a restarted application master builds a
  // fresh ResourceClient on its surviving endpoint, deliberately taking
  // these payload types over from the dead incarnation.
  endpoint->ReplaceHandle<GrantRpc>(
      [this](const net::Envelope&, const GrantRpc& rpc) {
        if (running_) OnGrant(rpc);
      });
  endpoint->ReplaceHandle<ResyncRpc>(
      [this](const net::Envelope&, const ResyncRpc&) {
        // Master lost our request stream: re-send everything.
        if (running_) {
          need_full_sync_ = true;
          Flush();
        }
      });
  uint64_t life = life_;
  sync_timer_ = sim_->Schedule(options_.full_sync_interval, [this, life] {
    if (running_ && life == life_) PeriodicSync();
  });
}

void ResourceClient::StartRecovering(net::Endpoint* endpoint,
                                     std::function<void()> on_snapshot) {
  recovering_ = true;
  on_snapshot_ = std::move(on_snapshot);
  resync_backoff_.Reset();
  Start(endpoint);
  // Ask the master for the authoritative grant snapshot; retry until a
  // primary is reachable and the snapshot arrives.
  SendRecoveryResync();
}

void ResourceClient::SendRecoveryResync() {
  if (!running_ || !recovering_) return;
  NodeId primary = CurrentMaster();
  if (primary.valid()) {
    ResyncRpc rpc;
    rpc.app = app_;
    rpc.reply_to = self_;
    rpc.incarnation = incarnation_;
    known_master_ = primary;
    network_->Send(self_, primary, rpc);
  }
  uint64_t life = life_;
  ++retries_scheduled_;
  if (resync_retry_counter_ != nullptr) resync_retry_counter_->Add();
  resync_timer_ = sim_->Schedule(resync_backoff_.NextDelay(), [this, life] {
    if (running_ && life == life_ && recovering_) SendRecoveryResync();
  });
}

void ResourceClient::Stop() {
  running_ = false;
  ++life_;
  sync_timer_.Cancel();
  resync_timer_.Cancel();
  flush_retry_timer_.Cancel();
}

ResourceClient::~ResourceClient() { Stop(); }

void ResourceClient::DefineUnit(const resource::ScheduleUnitDef& def) {
  SlotState& slot = slots_[def.slot_id];
  slot.def = def;
  resource::UnitRequestDelta* unit = PendingUnit(&pending_, def.slot_id);
  unit->has_def = true;
  unit->def = def;
  pending_dirty_ = true;
  Flush();
}

void ResourceClient::SetDesired(uint32_t slot_id, int64_t desired_total) {
  auto it = slots_.find(slot_id);
  FUXI_CHECK(it != slots_.end()) << "DefineUnit before SetDesired";
  SlotState& slot = it->second;
  if (desired_total < slot.granted_total) {
    // Cannot un-desire units that are already granted; the application
    // must Release them instead.
    desired_total = slot.granted_total;
  }
  int64_t outstanding_before = slot.desired - slot.granted_total;
  slot.desired = desired_total;
  int64_t outstanding_after = slot.desired - slot.granted_total;
  int64_t delta = outstanding_after - outstanding_before;
  if (delta != 0) {
    PendingUnit(&pending_, slot_id)->total_count_delta += delta;
    pending_dirty_ = true;
    Flush();
  }
}

void ResourceClient::AddDesired(uint32_t slot_id, int64_t delta) {
  auto it = slots_.find(slot_id);
  FUXI_CHECK(it != slots_.end());
  SetDesired(slot_id, it->second.desired + delta);
}

void ResourceClient::SetLocalityHint(uint32_t slot_id,
                                     resource::LocalityLevel level,
                                     const std::string& value,
                                     int64_t count) {
  SlotState& slot = slots_[slot_id];
  auto key = std::make_pair(static_cast<int>(level), value);
  int64_t current = 0;
  if (auto it = slot.hints.find(key); it != slot.hints.end()) {
    current = it->second;
  }
  if (count == current) return;
  if (count == 0) {
    slot.hints.erase(key);
  } else {
    slot.hints[key] = count;
  }
  PendingUnit(&pending_, slot_id)
      ->hints.push_back({level, value, count - current});
  pending_dirty_ = true;
  Flush();
}

void ResourceClient::Avoid(uint32_t slot_id, const std::string& hostname) {
  SlotState& slot = slots_[slot_id];
  if (!slot.avoid.insert(hostname).second) return;
  PendingUnit(&pending_, slot_id)->avoid_add.push_back(hostname);
  pending_dirty_ = true;
  Flush();
}

void ResourceClient::SetPlan(uint32_t slot_id,
                             const resource::PlanningHints& plan) {
  SlotState& slot = slots_[slot_id];
  if (slot.plan == plan) return;
  slot.plan = plan;
  resource::UnitRequestDelta* unit = PendingUnit(&pending_, slot_id);
  unit->has_plan = true;
  unit->plan = plan;
  pending_dirty_ = true;
  Flush();
}

void ResourceClient::Release(uint32_t slot_id, MachineId machine,
                             int64_t count) {
  auto it = slots_.find(slot_id);
  FUXI_CHECK(it != slots_.end());
  SlotState& slot = it->second;
  auto git = slot.granted.find(machine);
  int64_t held = git == slot.granted.end() ? 0 : git->second;
  if (count > held) count = held;
  if (count <= 0) return;
  slot.granted[machine] -= count;
  if (slot.granted[machine] == 0) slot.granted.erase(machine);
  slot.granted_total -= count;
  // A returned unit is finished work: desired shrinks with it so the
  // outstanding ask (desired - granted) is unchanged.
  slot.desired -= count;
  pending_.releases.push_back({slot_id, machine, count});
  pending_dirty_ = true;
  Flush();
}

NodeId ResourceClient::CurrentMaster() const {
  return locks_->Holder(master_lock_);
}

void ResourceClient::Flush() {
  if (!running_ || recovering_) return;
  if (!pending_dirty_ && !need_full_sync_) return;
  NodeId primary = CurrentMaster();
  if (!primary.valid()) {
    // No elected master right now; retry on the backoff schedule.
    if (!retry_scheduled_) {
      retry_scheduled_ = true;
      uint64_t life = life_;
      ++retries_scheduled_;
      if (no_master_retry_counter_ != nullptr) {
        no_master_retry_counter_->Add();
      }
      flush_retry_timer_ =
          sim_->Schedule(flush_backoff_.NextDelay(), [this, life] {
            if (running_ && life == life_) {
              retry_scheduled_ = false;
              Flush();
            }
          });
    }
    return;
  }
  flush_backoff_.Reset();
  if (primary != known_master_) {
    // New primary: our delta stream and its grant stream both restart.
    known_master_ = primary;
    grant_receiver_ = resource::DeltaReceiver<resource::GrantMessage>();
    need_full_sync_ = true;
  }
  RequestRpc rpc;
  rpc.app = app_;
  rpc.reply_to = self_;
  rpc.incarnation = incarnation_;
  if (need_full_sync_) {
    rpc.msg = sender_.StampFull(BuildFullState());
    need_full_sync_ = false;
    pending_ = resource::RequestMessage();  // superseded by full state
    pending_dirty_ = false;
    ++full_syncs_sent_;
    network_->Send(self_, primary, rpc);
  } else {
    resource::RequestMessage delta = std::move(pending_);
    pending_ = resource::RequestMessage();
    pending_dirty_ = false;
    delta.delta.app = app_;
    rpc.msg = sender_.Stamp(std::move(delta));
    ++deltas_sent_;
    network_->Send(self_, primary, rpc);
  }
}

resource::RequestMessage ResourceClient::BuildFullState() const {
  resource::RequestMessage full;
  for (const auto& [slot_id, slot] : slots_) {
    resource::SlotAbsoluteState absolute;
    absolute.def = slot.def;
    // The *desired total* (granted + outstanding), not the outstanding
    // remainder: grants in flight move units between the two halves on
    // the two peers, but the total is stable, so reconciling totals is
    // immune to that race.
    absolute.total_count = slot.desired;
    for (const auto& [key, count] : slot.hints) {
      absolute.hints.push_back(
          {static_cast<resource::LocalityLevel>(key.first), key.second,
           count});
    }
    absolute.avoid.assign(slot.avoid.begin(), slot.avoid.end());
    absolute.plan = slot.plan;
    full.full_slots.push_back(std::move(absolute));
    for (const auto& [machine, count] : slot.granted) {
      full.held_grants.push_back({slot_id, machine, count});
    }
  }
  return full;
}

void ResourceClient::OnGrant(const GrantRpc& rpc) {
  using Outcome = resource::DeltaReceiver<resource::GrantMessage>::Outcome;
  Outcome outcome = grant_receiver_.Receive(
      rpc.msg,
      [this](const resource::GrantMessage& msg, bool is_full) {
        ApplyGrantMessage(msg, is_full);
      });
  if (outcome == Outcome::kNeedResync) {
    NodeId primary = CurrentMaster();
    if (primary.valid()) {
      ResyncRpc rpc;
      rpc.app = app_;
      rpc.reply_to = self_;
      network_->Send(self_, primary, rpc);
    }
  }
}

void ResourceClient::ApplyGrantMessage(const resource::GrantMessage& msg,
                                       bool is_full) {
  if (is_full) {
    // Snap the granted view to the master's authoritative state, firing
    // callbacks for the differences so the application reacts.
    std::map<std::pair<uint32_t, MachineId>, int64_t> authoritative;
    for (const resource::GrantAbsolute& grant : msg.full_grants) {
      authoritative[{grant.slot_id, grant.machine}] += grant.count;
      if (recovering_) slots_[grant.slot_id];  // materialize the slot
    }
    // Compute diffs per slot, apply the new view FIRST, then fire the
    // callbacks: callbacks read the granted view (e.g. to decide how
    // many workers to start), so it must already be current.
    struct Diff {
      uint32_t slot_id;
      MachineId machine;
      int64_t delta;
    };
    std::vector<Diff> diffs;
    for (auto& [slot_id, slot] : slots_) {
      std::map<MachineId, int64_t> new_granted;
      int64_t new_total = 0;
      for (const auto& [key, count] : authoritative) {
        if (key.first != slot_id) continue;
        new_granted[key.second] = count;
        new_total += count;
      }
      for (const auto& [machine, count] : new_granted) {
        int64_t old = 0;
        if (auto it = slot.granted.find(machine); it != slot.granted.end()) {
          old = it->second;
        }
        if (count != old) diffs.push_back({slot_id, machine, count - old});
      }
      for (const auto& [machine, old] : slot.granted) {
        if (new_granted.count(machine) == 0 && old != 0) {
          diffs.push_back({slot_id, machine, -old});
        }
      }
      slot.granted = std::move(new_granted);
      slot.granted_total = new_total;
      // A snapshot can only reveal that outstanding demand was already
      // satisfied (or that grants were lost); desired itself is the
      // application's business — just keep the invariant
      // desired >= granted (relevant on failover recovery, where the
      // fresh slot starts at desired 0).
      if (slot.desired < slot.granted_total) {
        slot.desired = slot.granted_total;
      }
    }
    for (const Diff& diff : diffs) {
      if (grant_callback_) {
        grant_callback_(diff.slot_id, diff.machine, diff.delta,
                        resource::RevocationReason::kAppRelease);
      }
    }
    if (recovering_) {
      recovering_ = false;
      resync_backoff_.Reset();
      if (on_snapshot_) on_snapshot_();
    }
    return;
  }
  for (const resource::GrantDelta& delta : msg.deltas) {
    auto it = slots_.find(delta.slot_id);
    if (it == slots_.end()) continue;  // slot torn down meanwhile
    SlotState& slot = it->second;
    // Clamp revocations to what we actually hold: a revocation racing a
    // local release must not drive the view negative.
    int64_t current = 0;
    if (auto git = slot.granted.find(delta.machine);
        git != slot.granted.end()) {
      current = git->second;
    }
    int64_t applied = std::max(delta.delta, -current);
    if (applied == 0) continue;
    slot.granted[delta.machine] = current + applied;
    if (slot.granted[delta.machine] <= 0) slot.granted.erase(delta.machine);
    slot.granted_total += applied;
    if (delta.delta > 0) {
      // The master consumed machine-level preference along with the
      // grant; mirror that in our absolute hint bookkeeping. (Rack
      // hints drift slightly — the periodic full sync re-asserts them;
      // see DESIGN.md.)
      // We only know the hostname mapping for hints we set ourselves.
    } else {
      // Involuntary revocation: the master re-queued the outstanding
      // ask on its side, and our (desired - granted) grows by the same
      // amount automatically as granted shrinks. Nothing else to do.
    }
    if (grant_callback_) {
      grant_callback_(delta.slot_id, delta.machine, applied, delta.reason);
    }
  }
}

void ResourceClient::PeriodicSync() {
  need_full_sync_ = true;
  Flush();
  uint64_t life = life_;
  sync_timer_ = sim_->Schedule(options_.full_sync_interval, [this, life] {
    if (running_ && life == life_) PeriodicSync();
  });
}

int64_t ResourceClient::desired(uint32_t slot) const {
  auto it = slots_.find(slot);
  return it == slots_.end() ? 0 : it->second.desired;
}

int64_t ResourceClient::granted_total(uint32_t slot) const {
  auto it = slots_.find(slot);
  return it == slots_.end() ? 0 : it->second.granted_total;
}

int64_t ResourceClient::granted(uint32_t slot, MachineId machine) const {
  auto it = slots_.find(slot);
  if (it == slots_.end()) return 0;
  auto git = it->second.granted.find(machine);
  return git == it->second.granted.end() ? 0 : git->second;
}

const std::map<MachineId, int64_t>& ResourceClient::grants_by_machine(
    uint32_t slot) const {
  static const std::map<MachineId, int64_t> kEmpty;
  auto it = slots_.find(slot);
  return it == slots_.end() ? kEmpty : it->second.granted;
}

}  // namespace fuxi::master
