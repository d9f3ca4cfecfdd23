#include "chaos/invariant_monitor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "obs/exporters.h"

namespace fuxi::chaos {

namespace {

/// Suffix of shard k's per-shard invariant names; empty when unsharded,
/// so the one-shard cluster keeps the legacy names.
std::string ShardSuffix(int shards, int k) {
  return shards > 1 ? ":shard" + std::to_string(k) : "";
}

}  // namespace

InvariantMonitor::InvariantMonitor(runtime::SimCluster* cluster,
                                   InvariantMonitorOptions options)
    : cluster_(cluster), options_(options) {
  FUXI_CHECK(cluster != nullptr);
  size_t shards = static_cast<size_t>(cluster->shard_count());
  last_shard_generation_.assign(shards, 0);
  shard_machine_count_.assign(shards, 0);
  for (const cluster::Machine& machine : cluster->topology().machines()) {
    ++shard_machine_count_[static_cast<size_t>(
        cluster->shard_of_machine(machine.id))];
  }
  shard_masters_.resize(shards);
  sweep_primaries_.assign(shards, nullptr);
  shard_lock_entries_.assign(shards, nullptr);
  for (size_t k = 0; k < shards; ++k) {
    const std::string& lock = cluster->shard_lock(static_cast<int>(k));
    for (int i = 0; i < cluster->master_count(); ++i) {
      master::FuxiMaster* m = cluster->master(i);
      if (m->lock_name() == lock) shard_masters_[k].push_back(m);
    }
  }
}

InvariantMonitor::~InvariantMonitor() { Stop(); }

void InvariantMonitor::Start() {
  if (installed_) return;
  installed_ = true;
  cluster_->sim().SetPostEventHook([this](double now) { OnEvent(now); });
}

void InvariantMonitor::Stop() {
  if (!installed_) return;
  installed_ = false;
  cluster_->sim().SetPostEventHook(nullptr);
}

void InvariantMonitor::OnEvent(double now) {
  CheapChecks(now);
  if (now - last_heavy_ >= options_.heavy_check_interval) {
    last_heavy_ = now;
    HeavyChecks(now);
  }
}

void InvariantMonitor::CheckNow() {
  double now = cluster_->sim().Now();
  CheapChecks(now);
  last_heavy_ = now;
  HeavyChecks(now);
}

void InvariantMonitor::Report(const std::string& invariant,
                              const std::string& detail) {
  Record(cluster_->sim().Now(), invariant, detail);
}

void InvariantMonitor::Record(double now, const std::string& invariant,
                              const std::string& detail) {
  if (violations_.size() >= options_.max_violations) return;
  FUXI_LOG(kWarning) << "invariant violated at t=" << now << ": "
                     << invariant << " (" << detail << ")";
  if (violations_.empty()) {
    // Dump the flight recorder NOW, before the traffic that follows the
    // first failure overwrites the causal history that produced it.
    trace_dump_ = obs::ExportChromeTrace(cluster_->obs().trace.Snapshot());
    // Same urgency for the decision audit: the ring must be frozen
    // before post-failure scheduling overwrites the decisions at fault.
    audit_dump_ = obs::ExportAuditJson(cluster_->obs().audit.Snapshot());
  }
  violations_.push_back(Violation{now, invariant, detail});
}

std::string InvariantMonitor::KeyText(const ConditionKey& key) {
  std::string subject = std::to_string(key.subject);
  switch (key.kind) {
    case ConditionKind::kPrimaryWithoutLock:
      return "primary-without-lock:node" + subject;
    case ConditionKind::kSinglePrimary:
      return key.subject < 0 ? "single-primary"
                             : "single-primary:shard" + subject;
    case ConditionKind::kAgentOvercommit:
      return "agent-overcommit:m" + subject;
    case ConditionKind::kShardIsolation:
      return "shard-isolation:m" + subject;
    case ConditionKind::kOrphanProcesses:
      return "orphan-processes:m" + subject + ":app" + std::to_string(key.app);
  }
  return "unknown-condition";
}

template <typename DetailFn>
void InvariantMonitor::Sustained(const ConditionKey& key, bool bad,
                                 double grace, double now,
                                 const DetailFn& detail) {
  if (!bad) {
    // Healthy checks far outnumber tracked conditions: with none pending
    // there is nothing to clear and no map to search.
    if (!pending_.empty()) pending_.erase(key);
    return;
  }
  auto [it, inserted] = pending_.try_emplace(key, PendingCondition{now, false});
  if (inserted || it->second.fired || now - it->second.since < grace) return;
  it->second.fired = true;
  Record(now, KeyText(key),
         detail() + " (sustained since t=" + std::to_string(it->second.since) +
             ")");
}

void InvariantMonitor::Fold(uint64_t value) {
  // FNV-1a over the value's bytes.
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (i * 8)) & 0xFF;
    hash_ *= 1099511628211ull;
  }
}

void InvariantMonitor::FoldTime(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  Fold(bits);
}

NodeId InvariantMonitor::ShardLockHolder(int k) {
  coord::LockService& locks = cluster_->locks();
  const coord::LockService::Lock*& entry =
      shard_lock_entries_[static_cast<size_t>(k)];
  if (entry == nullptr) entry = locks.Find(cluster_->shard_lock(k));
  return locks.HolderOf(entry);
}

void InvariantMonitor::CheapChecks(double now) {
  // One pass per shard (the unsharded cluster is the one-shard case and
  // produces exactly the legacy condition keys). shard_masters_ matched
  // masters to shards by election lease, so the loop never depends on
  // construction order.
  int shards = cluster_->shard_count();
  for (int k = 0; k < shards; ++k) {
    NodeId holder = ShardLockHolder(k);
    int primaries = 0;
    master::FuxiMaster* holder_primary = nullptr;
    for (master::FuxiMaster* m : shard_masters_[static_cast<size_t>(k)]) {
      bool acting_primary = m->is_alive() && m->is_primary();
      if (acting_primary) {
        ++primaries;
        if (m->node() == holder) holder_primary = m;
      }
      if (options_.check_single_primary) {
        // A primary that no longer holds the lock must notice at its next
        // renewal and step down; staying in charge past the grace window
        // means two masters could be dispatching grants concurrently.
        Sustained(
            ConditionKey{ConditionKind::kPrimaryWithoutLock, m->node().value()},
            acting_primary && m->node() != holder,
            options_.split_brain_grace, now, [&] {
              return "master node " + std::to_string(m->node().value()) +
                     " acts as primary but the lock is held by node " +
                     std::to_string(holder.value());
            });
      }
    }
    if (options_.check_single_primary) {
      ConditionKey key{ConditionKind::kSinglePrimary, shards > 1 ? k : -1};
      Sustained(key, primaries > 1, options_.split_brain_grace, now, [&] {
        return std::to_string(primaries) + " masters act as primary at once";
      });
    }
    if (options_.check_generation_monotonic && holder_primary != nullptr) {
      uint64_t generation = holder_primary->generation();
      uint64_t& last_generation =
          last_shard_generation_[static_cast<size_t>(k)];
      if (generation < last_generation) {
        Record(now, "generation-monotonic" + ShardSuffix(shards, k),
               "lock holder node " +
                   std::to_string(holder_primary->node().value()) +
                   " acts with generation " + std::to_string(generation) +
                   " after generation " + std::to_string(last_generation) +
                   " was seen");
      } else {
        last_generation = generation;
      }
    }
  }
}

void InvariantMonitor::HeavyChecks(double now) {
  ++checks_;
  FoldTime(now);

  // Per-shard sweep. With one shard the fold sequence and condition
  // keys below are byte-identical to the pre-federation monitor — the
  // golden replay digests pin this.
  int shards = cluster_->shard_count();
  std::vector<master::FuxiMaster*>& primaries = sweep_primaries_;
  for (int k = 0; k < shards; ++k) {
    NodeId holder = ShardLockHolder(k);
    master::FuxiMaster* primary = nullptr;
    for (master::FuxiMaster* m : shard_masters_[static_cast<size_t>(k)]) {
      if (m->is_alive() && m->is_primary() && m->node() == holder) primary = m;
    }
    primaries[static_cast<size_t>(k)] = primary;
    Fold(primary != nullptr ? primary->generation() : 0);

    if (primary != nullptr && primary->scheduler() != nullptr) {
      if (options_.check_scheduler_conservation &&
          !primary->scheduler()->CheckInvariants()) {
        Record(now, "scheduler-conservation" + ShardSuffix(shards, k),
               "scheduler cross-structure audit failed (free+granted vs "
               "capacity, quota accounting, or locality-tree totals)");
      }
      // fuxi::planner invariants. No Fold: the planner is absent in
      // legacy runs and the golden replays pin the fold stream.
      if (options_.check_planner_overcommit &&
          !primary->scheduler()->PlannerOvercommitOk()) {
        Record(now, "planner-overcommit" + ShardSuffix(shards, k),
               "a machine or rack timeline admits booked load above "
               "free-now + expected releases at some scheduled point");
      }
      if (options_.check_gang_atomicity &&
          !primary->scheduler()->PlannerGangAtomicityOk()) {
        Record(now, "gang-atomicity" + ShardSuffix(shards, k),
               "an unstarted gang holds grants on at least one member "
               "(all-or-nothing transaction leaked a partial placement)");
      }
      if (options_.check_blacklist_cap) {
        size_t cap = static_cast<size_t>(
            cluster_->options().master.blacklist_cap_fraction *
            static_cast<double>(
                shard_machine_count_[static_cast<size_t>(k)]));
        if (cap < 1) cap = 1;
        size_t blacklisted = primary->Blacklisted().size();
        Fold(blacklisted);
        if (blacklisted > cap) {
          Record(now, "blacklist-cap" + ShardSuffix(shards, k),
                 std::to_string(blacklisted) +
                     " machines blacklisted, cap is " + std::to_string(cap));
        }
      }
    }
  }

  // Cross-shard accounting (sharded clusters only, so the unsharded
  // fold stream is untouched): the federation as a whole must never
  // promise more than the online machines physically have, even while
  // spillover moves load between shards.
  if (shards > 1 && options_.check_scheduler_conservation) {
    cluster::ResourceVector global_granted;
    cluster::ResourceVector global_capacity;
    for (master::FuxiMaster* primary : primaries) {
      if (primary == nullptr || primary->scheduler() == nullptr) continue;
      global_granted += primary->scheduler()->TotalGranted();
      global_capacity += primary->scheduler()->TotalCapacity();
    }
    Fold(static_cast<uint64_t>(global_granted.cpu()));
    Fold(static_cast<uint64_t>(global_granted.memory()));
    if (!global_granted.FitsIn(global_capacity)) {
      Record(now, "global-conservation",
             "federation grants " + global_granted.ToString() +
                 " exceed online capacity " + global_capacity.ToString());
    }
  }

  for (const cluster::Machine& machine : cluster_->topology().machines()) {
    master::FuxiMaster* primary = primaries[static_cast<size_t>(
        cluster_->shard_of_machine(machine.id))];
    agent::FuxiAgent* agent = cluster_->agent(machine.id);
    agent::ProcessHost* host = cluster_->host(machine.id);

    if (options_.check_agent_overcommit) {
      // A dead agent has no table; the sustained window restarts from
      // scratch once it revives (a stale `since` would fire spuriously).
      bool over = false;
      cluster::ResourceVector promised;
      if (agent->is_alive()) {
        promised = agent->TotalGrantedCapacity();
        Fold(static_cast<uint64_t>(promised.cpu()));
        Fold(static_cast<uint64_t>(promised.memory()));
        over = !promised.FitsIn(machine.capacity);
      }
      Sustained(
          ConditionKey{ConditionKind::kAgentOvercommit, machine.id.value()},
          over, options_.overcommit_grace, now, [&] {
            return "agent on machine " + std::to_string(machine.id.value()) +
                   " holds capacity " + promised.ToString() +
                   " above physical " + machine.capacity.ToString();
          });
    }

    if (shards > 1 && options_.check_shard_isolation) {
      // Fault-domain isolation: only the owning shard's scheduler may
      // have this machine online. A foreign shard granting here would
      // double-book the machine globally while every per-shard
      // conservation audit still passes.
      int owner = cluster_->shard_of_machine(machine.id);
      int foreign = -1;
      for (int k = 0; k < shards; ++k) {
        if (k == owner) continue;
        master::FuxiMaster* other = primaries[static_cast<size_t>(k)];
        if (other != nullptr && other->scheduler() != nullptr &&
            other->scheduler()->machine_state(machine.id).online) {
          foreign = k;
          break;
        }
      }
      Sustained(
          ConditionKey{ConditionKind::kShardIsolation, machine.id.value()},
          foreign >= 0, options_.split_brain_grace, now, [&] {
            return "machine " + std::to_string(machine.id.value()) +
                   " owned by shard " + std::to_string(owner) +
                   " is online in shard " + std::to_string(foreign) +
                   "'s scheduler";
          });
    }

    size_t alive = host->alive_count();
    Fold(alive);
    if (options_.check_halted_machines &&
        cluster_->machine_halted(machine.id) && alive > 0) {
      // Instantaneous: HaltMachine kills every process synchronously,
      // so any survivor was resurrected on a dead machine.
      Record(now, "halted-machine-processes",
             "halted machine " + std::to_string(machine.id.value()) +
                 " hosts " + std::to_string(alive) + " live processes");
    }

    if (options_.check_orphan_processes && app_live_) {
      CheckOrphans(now, machine.id, primary != nullptr);
    }
  }
}

void InvariantMonitor::CheckOrphans(double now, MachineId machine,
                                    bool primary_elected) {
  // Live processes come sorted by app, so each app is asked about once.
  const std::vector<agent::ProcessHost::SlotEntry>& live =
      cluster_->host(machine)->AliveByApp();
  std::vector<AppId> stray_apps;  // ascending; empty on a healthy machine
  for (auto run = live.begin(); run != live.end();) {
    AppId app = run->app;
    auto run_end = std::find_if(run, live.end(), [app](const auto& entry) {
      return entry.app != app;
    });
    if (!app_live_(app)) {
      stray_apps.push_back(app);
      // Cleanup of strays the application master does not know about
      // travels master -> agent (capacity revocation), so the clock
      // only runs while a primary is elected; the window restarts
      // when the control plane recovers from an outage.
      Sustained(
          ConditionKey{ConditionKind::kOrphanProcesses, machine.value(),
                       app.value()},
          primary_elected, options_.orphan_grace, now, [&] {
            std::vector<const agent::Process*> strays;
            for (auto it = run; it != run_end; ++it) {
              strays.push_back(it->process);
            }
            std::sort(strays.begin(), strays.end(),
                      [](const agent::Process* a, const agent::Process* b) {
                        return a->id < b->id;
                      });
            std::ostringstream detail;
            detail << "processes of finished app " << app.value()
                   << " still run on machine " << machine.value() << ":";
            for (const agent::Process* process : strays) {
              detail << " w" << process->id.value() << "@am"
                     << process->owner_am.value()
                     << " since t=" << process->started_at;
            }
            return detail.str();
          });
    }
    run = run_end;
  }
  // Drop the trackers of apps that have no strays here any more: the
  // machine's (kOrphanProcesses, machine, *) run of `pending_`.
  if (pending_.empty()) return;
  auto it = pending_.lower_bound(
      ConditionKey{ConditionKind::kOrphanProcesses, machine.value(),
                   std::numeric_limits<int64_t>::min()});
  while (it != pending_.end() &&
         it->first.kind == ConditionKind::kOrphanProcesses &&
         it->first.subject == machine.value()) {
    if (std::binary_search(stray_apps.begin(), stray_apps.end(),
                           AppId(it->first.app))) {
      ++it;
    } else {
      it = pending_.erase(it);
    }
  }
}

std::string InvariantMonitor::Summary() const {
  std::ostringstream out;
  out << "heavy_checks=" << checks_ << " state_hash=" << std::hex << hash_
      << std::dec << " violations=" << violations_.size();
  for (const Violation& v : violations_) {
    out << "\n  t=" << v.time << " [" << v.invariant << "] " << v.detail;
  }
  return out.str();
}

}  // namespace fuxi::chaos
