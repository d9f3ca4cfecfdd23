#include "planner/planner.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace fuxi::planner {

namespace {

/// Candidate-start cap per planning query: load books carry tens of
/// claims per machine; beyond a few hundred distinct event times the
/// extra candidates only refine a start that is already years out.
constexpr size_t kMaxCandidateStarts = 256;

std::string KeyStr(const PlanKey& key) {
  std::ostringstream os;
  os << key.app << "/" << key.slot;
  return os.str();
}

}  // namespace

ClusterPlanner::ClusterPlanner(
    std::vector<cluster::ResourceVector> capacities,
    std::vector<int64_t> rack_of, int64_t rack_count, HostHooks hooks)
    : rack_of_(std::move(rack_of)), hooks_(std::move(hooks)) {
  timelines_.reserve(capacities.size());
  for (const auto& cap : capacities) timelines_.emplace_back(cap);
  rack_timelines_.resize(static_cast<size_t>(rack_count));
  rack_members_.resize(static_cast<size_t>(rack_count));
  for (size_t m = 0; m < rack_of_.size(); ++m) {
    int64_t r = rack_of_[m];
    FUXI_CHECK(r >= 0 && r < rack_count) << "bad rack id " << r;
    rack_members_[static_cast<size_t>(r)].push_back(
        static_cast<int64_t>(m));
    cluster::ResourceVector agg =
        rack_timelines_[static_cast<size_t>(r)].capacity();
    agg += capacities[m];
    rack_timelines_[static_cast<size_t>(r)].set_capacity(agg);
  }
}

void ClusterPlanner::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  points_gauge_ = metrics->GetGauge("planner.scheduled_points");
  head_fence_wait_gauge_ =
      metrics->GetGauge("planner.head_fence_wait_seconds");
  backfill_hit_counter_ = metrics->GetCounter("planner.backfill_hits");
  backfill_miss_counter_ = metrics->GetCounter("planner.backfill_misses");
  gang_abort_counter_ = metrics->GetCounter("planner.gang_aborts");
  reservation_wait_hist_ =
      metrics->GetHistogram("planner.reservation_wait_seconds");
}

// --- demand lifecycle ---------------------------------------------------

void ClusterPlanner::NoteDemand(const PlanKey& key,
                                const DemandInfo& info,
                                bool already_granted) {
  if (info.reservation) {
    reservation_keys_.insert(key);
    // Restored-after-failover grants mean the reservation converted
    // under the previous primary; holding it again would deadlock.
    if (already_granted) converted_.insert(key);
  }
  if (info.gang_id != 0) {
    Gang& gang = gangs_[info.gang_id];
    gang.declared_size = std::max(gang.declared_size, info.gang_size);
    gang.members.insert(key);
    gang_of_key_[key] = info.gang_id;
    if (already_granted) gang.started = true;
  }
}

void ClusterPlanner::OnGrantRestored(const PlanKey& key) {
  if (reservation_keys_.count(key) > 0) converted_.insert(key);
  auto gang_it = gang_of_key_.find(key);
  if (gang_it != gang_of_key_.end()) {
    auto g = gangs_.find(gang_it->second);
    if (g != gangs_.end() && !g->second.started) {
      g->second.started = true;
      // A reservation booked for the not-yet-started gang is stale:
      // the gang is running, its future-capacity claim must not keep
      // blocking backfill.
      if (g->second.reservation != 0) {
        ReleaseReservation(g->second.reservation);
        g->second.reservation = 0;
      }
    }
  }
}

void ClusterPlanner::OnDemandGone(const PlanKey& key) {
  auto res_it = res_of_key_.find(key);
  if (res_it != res_of_key_.end()) ReleaseReservation(res_it->second);
  converted_.erase(key);
  reservation_keys_.erase(key);
  needs_replan_.erase(key);
  auto gang_it = gang_of_key_.find(key);
  if (gang_it != gang_of_key_.end()) {
    auto g = gangs_.find(gang_it->second);
    if (g != gangs_.end()) {
      g->second.members.erase(key);
      if (!g->second.started && g->second.reservation != 0) {
        ReleaseReservation(g->second.reservation);
      }
      if (g->second.members.empty()) gangs_.erase(g);
    }
    gang_of_key_.erase(gang_it);
  }
  // Defensive: drop any running claims still indexed under the key
  // (normal teardown releases them one by one via OnGrantReleased).
  for (auto it = running_.begin(); it != running_.end();) {
    if (it->first.first == key) {
      for (const RunningClaim& rc : it->second) {
        DropClaim(it->first.second, rc.id);
      }
      it = running_.erase(it);
    } else {
      ++it;
    }
  }
}

bool ClusterPlanner::Holds(const PlanKey& key) const {
  auto gang_it = gang_of_key_.find(key);
  if (gang_it != gang_of_key_.end()) {
    auto g = gangs_.find(gang_it->second);
    if (g != gangs_.end() && !g->second.started) return true;
  }
  if (reservation_keys_.count(key) > 0 && converted_.count(key) == 0) {
    return true;
  }
  return false;
}

// --- grant mirror -------------------------------------------------------

void ClusterPlanner::OnGrantCommitted(const PlanKey& key,
                                      int64_t machine, int64_t count,
                                      const cluster::ResourceVector& unit,
                                      double estimate) {
  if (estimate <= 0 || count <= 0) return;
  uint64_t id =
      AddClaim(machine, now_, now_ + estimate, unit * count, /*owner=*/0);
  running_[{key, machine}].push_back(
      RunningClaim{id, count, now_, now_ + estimate, unit});
}

void ClusterPlanner::OnGrantReleased(const PlanKey& key, int64_t machine,
                                     int64_t count) {
  auto it = running_.find({key, machine});
  if (it == running_.end()) return;
  std::vector<RunningClaim>& claims = it->second;
  // Earliest-expected-end first: released units most plausibly belong
  // to the oldest grants.
  std::sort(claims.begin(), claims.end(),
            [](const RunningClaim& a, const RunningClaim& b) {
              if (a.end != b.end) return a.end < b.end;
              return a.id < b.id;
            });
  while (count > 0 && !claims.empty()) {
    RunningClaim rc = claims.front();
    claims.erase(claims.begin());
    DropClaim(machine, rc.id);
    if (rc.count > count) {
      // Partial release: re-book the surviving units under a new id,
      // keeping the ORIGINAL window — an overrunning survivor
      // (rc.end <= now_) stays a valid, already-expired claim instead
      // of an empty [now_, rc.end) one.
      int64_t left = rc.count - count;
      uint64_t id = AddClaim(machine, rc.start, rc.end, rc.unit * left, 0);
      claims.push_back(RunningClaim{id, left, rc.start, rc.end, rc.unit});
      count = 0;
    } else {
      count -= rc.count;
    }
  }
  if (claims.empty()) running_.erase(it);
}

// --- machine lifecycle --------------------------------------------------

void ClusterPlanner::OnMachineOffline(int64_t machine) {
  Timeline& tl = timelines_[static_cast<size_t>(machine)];
  std::vector<uint64_t> broken_reservations;
  std::vector<uint64_t> ids;
  for (const auto& [id, claim] : tl.claims()) {
    ids.push_back(id);
    if (claim.owner != 0) broken_reservations.push_back(claim.owner);
  }
  for (uint64_t id : ids) DropClaim(machine, id);
  for (auto it = running_.begin(); it != running_.end();) {
    it = it->first.second == machine ? running_.erase(it) : std::next(it);
  }
  std::sort(broken_reservations.begin(), broken_reservations.end());
  broken_reservations.erase(
      std::unique(broken_reservations.begin(), broken_reservations.end()),
      broken_reservations.end());
  for (uint64_t res : broken_reservations) {
    if (reservations_.count(res) > 0) ReleaseReservation(res);
  }
}

void ClusterPlanner::SetMachineCapacity(
    int64_t machine, const cluster::ResourceVector& capacity) {
  Timeline& tl = timelines_[static_cast<size_t>(machine)];
  int64_t r = rack_of_[static_cast<size_t>(machine)];
  cluster::ResourceVector rack_cap =
      rack_timelines_[static_cast<size_t>(r)].capacity();
  rack_cap += capacity - tl.capacity();
  rack_timelines_[static_cast<size_t>(r)].set_capacity(rack_cap);
  tl.set_capacity(capacity);
  // A shrink shows up as a smaller free pool; drop whatever the book
  // can no longer honour right away so the overcommit invariant holds
  // between ticks, not just at them.
  Reconcile(now_);
}

// --- backfill guard -----------------------------------------------------

int64_t ClusterPlanner::ClampForBackfill(
    int64_t machine, const cluster::ResourceVector& free,
    const cluster::ResourceVector& unit, double estimate, int64_t want,
    const PlanKey& key) {
  if (want <= 0) return want;
  const Timeline& tl = timelines_[static_cast<size_t>(machine)];
  uint64_t skip = 0;
  auto it = res_of_key_.find(key);
  if (it != res_of_key_.end()) skip = it->second;
  cluster::ResourceVector budget = free + tl.RunningLoadAt(now_);
  double end = estimate > 0 ? now_ + estimate : kForever;
  cluster::ResourceVector avail =
      tl.MinAvailable(now_, end, budget, skip).ClampNonNegative();
  int64_t fit = std::min(want, avail.DivideBy(unit));
  if (fit > 0) {
    ++backfill_hits_n_;
    if (backfill_hit_counter_ != nullptr) backfill_hit_counter_->Add();
  } else {
    ++backfill_misses_n_;
    if (backfill_miss_counter_ != nullptr) backfill_miss_counter_->Add();
  }
  return fit;
}

// --- timeline plumbing --------------------------------------------------

uint64_t ClusterPlanner::AddClaim(int64_t machine, double start,
                                  double end,
                                  const cluster::ResourceVector& amount,
                                  uint64_t owner) {
  uint64_t id = next_claim_id_++;
  timelines_[static_cast<size_t>(machine)].ReserveAt(id, start, end, amount,
                                                     owner);
  rack_timelines_[static_cast<size_t>(rack_of_[static_cast<size_t>(machine)])]
      .ReserveAt(id, start, end, amount, owner);
  if (owner != 0) ++reserved_on_[machine];
  return id;
}

void ClusterPlanner::DropClaim(int64_t machine, uint64_t id) {
  Timeline& tl = timelines_[static_cast<size_t>(machine)];
  auto it = tl.claims().find(id);
  if (it == tl.claims().end()) return;
  if (it->second.owner != 0) {
    auto r = reserved_on_.find(machine);
    if (r != reserved_on_.end() && --r->second == 0) reserved_on_.erase(r);
  }
  tl.Release(id);
  rack_timelines_[static_cast<size_t>(rack_of_[static_cast<size_t>(machine)])]
      .Release(id);
}

cluster::ResourceVector ClusterPlanner::BudgetOf(int64_t machine) const {
  MachineView view = hooks_.machine(machine);
  if (!view.online) return cluster::ResourceVector{};
  return view.free +
         timelines_[static_cast<size_t>(machine)].RunningLoadAt(now_);
}

int64_t ClusterPlanner::AvailableUnits(int64_t machine, double t,
                                       double duration,
                                       const cluster::ResourceVector& unit,
                                       uint64_t skip_owner) const {
  MachineView view = hooks_.machine(machine);
  if (!view.online) return 0;
  const Timeline& tl = timelines_[static_cast<size_t>(machine)];
  double end = duration == kForever ? kForever : t + duration;
  cluster::ResourceVector avail =
      tl.MinAvailable(t, end, view.free + tl.RunningLoadAt(now_), skip_owner)
          .ClampNonNegative();
  return avail.DivideBy(unit);
}

std::vector<double> ClusterPlanner::CandidateStarts(double from) const {
  std::set<double> points{from};
  for (const Timeline& tl : timelines_) {
    for (double p : tl.PointsAfter(from, kMaxCandidateStarts)) {
      points.insert(p);
    }
  }
  std::vector<double> out(points.begin(), points.end());
  if (out.size() > kMaxCandidateStarts) out.resize(kMaxCandidateStarts);
  return out;
}

std::optional<ClusterPlanner::PlanSpot> ClusterPlanner::FindEarliest(
    double from, double duration, const cluster::ResourceVector& unit,
    int64_t need, uint64_t skip_owner) {
  for (double t : CandidateStarts(from)) {
    int64_t total = 0;
    std::vector<Reservation::Booking> bookings;
    for (size_t r = 0; r < rack_members_.size() && total < need; ++r) {
      // Rack pre-filter: the aggregate book is an upper bound on what
      // the members can yield, so a zero here skips the whole rack.
      cluster::ResourceVector rack_budget;
      for (int64_t m : rack_members_[r]) rack_budget += BudgetOf(m);
      double end = duration == kForever ? kForever : t + duration;
      cluster::ResourceVector rack_avail =
          rack_timelines_[r]
              .MinAvailable(t, end, rack_budget, skip_owner)
              .ClampNonNegative();
      if (rack_avail.DivideBy(unit) <= 0) continue;
      for (int64_t m : rack_members_[r]) {
        int64_t n = AvailableUnits(m, t, duration, unit, skip_owner);
        if (n <= 0) continue;
        n = std::min(n, need - total);
        bookings.push_back(Reservation::Booking{m, n});
        total += n;
        if (total >= need) break;
      }
    }
    if (total >= need) return PlanSpot{t, std::move(bookings)};
  }
  return std::nullopt;
}

// --- reservations -------------------------------------------------------

uint64_t ClusterPlanner::Book(
    double start, double end, uint64_t gang_id, bool backfill_head,
    double requested_at,
    const std::map<PlanKey, std::vector<Reservation::Booking>>& bookings) {
  Reservation res;
  res.id = next_res_id_++;
  res.start = start;
  res.end = end;
  res.requested_at = requested_at;
  res.gang_id = gang_id;
  res.backfill_head = backfill_head;
  res.bookings = bookings;
  for (const auto& [key, member_bookings] : bookings) {
    DemandInfo info = hooks_.demand(key);
    for (const Reservation::Booking& b : member_bookings) {
      uint64_t claim =
          AddClaim(b.machine, start, end, info.unit * b.count, res.id);
      res.claims.emplace_back(b.machine, claim);
    }
    res_of_key_[key] = res.id;
  }
  if (gang_id != 0) gangs_[gang_id].reservation = res.id;
  reservations_.emplace(res.id, std::move(res));
  return res.id;
}

void ClusterPlanner::ReleaseReservation(uint64_t id) {
  auto it = reservations_.find(id);
  if (it == reservations_.end()) return;
  Reservation res = std::move(it->second);
  reservations_.erase(it);
  for (const auto& [machine, claim] : res.claims) DropClaim(machine, claim);
  for (const auto& [key, bookings] : res.bookings) {
    auto k = res_of_key_.find(key);
    if (k != res_of_key_.end() && k->second == id) res_of_key_.erase(k);
  }
  if (res.gang_id != 0) {
    auto g = gangs_.find(res.gang_id);
    if (g != gangs_.end() && g->second.reservation == id) {
      g->second.reservation = 0;
    }
  }
}

// --- the planning pass --------------------------------------------------

void ClusterPlanner::Tick(double now) {
  now_ = std::max(now_, now);
  // 1. Expire the past: reservation claims whose whole window passed
  //    unconverted belong to stale reservations. Grant-backed claims
  //    (owner == 0) are NOT dropped at estimate expiry — an overrunning
  //    grant still holds its capacity, and only OnGrantReleased knows
  //    when it actually ends. An expired running claim constrains no
  //    future fit (its window is past) but keeps counting in
  //    RunningLoadAt, preserving the budget identity free + running.
  std::vector<uint64_t> stale_reservations;
  for (size_t m = 0; m < timelines_.size(); ++m) {
    std::vector<uint64_t> ended;
    for (const auto& [id, claim] : timelines_[m].claims()) {
      if (claim.owner != 0 && claim.end <= now_) {
        ended.push_back(id);
        stale_reservations.push_back(claim.owner);
      }
    }
    for (uint64_t id : ended) DropClaim(static_cast<int64_t>(m), id);
  }
  std::sort(stale_reservations.begin(), stale_reservations.end());
  stale_reservations.erase(
      std::unique(stale_reservations.begin(), stale_reservations.end()),
      stale_reservations.end());
  for (uint64_t id : stale_reservations) ReleaseReservation(id);

  // 2. Convert reservations whose start arrived into real grants.
  ConvertDue(now_);
  // 3. Repair any book a fault broke since the last tick.
  Reconcile(now_);
  // 4. Plan new work onto the repaired book.
  PlanReservations(now_);
  PlanGangs(now_);
  MaintainBackfillHead(now_);
  UpdatePointsGauge();
}

void ClusterPlanner::ConvertDue(double now) {
  std::vector<uint64_t> due;
  for (const auto& [id, res] : reservations_) {
    if (res.start <= now) due.push_back(id);
  }
  for (uint64_t id : due) {
    auto it = reservations_.find(id);
    if (it == reservations_.end()) continue;  // released by an earlier convert
    // Copy: commit hooks re-enter the scheduler, which may call back in.
    Reservation res = it->second;

    // Drop members whose demand vanished mid-wait.
    bool any_member = false;
    for (const auto& [key, bookings] : res.bookings) {
      if (hooks_.demand(key).exists) any_member = true;
    }
    if (!any_member) {
      ReleaseReservation(id);
      continue;
    }

    if (res.backfill_head) {
      // The head reservation only exists to fence backfill until this
      // moment; from here the instantaneous pass places the demand
      // itself. Release the fence.
      ReleaseReservation(id);
      continue;
    }

    if (res.gang_id != 0) {
      // All-or-nothing: verify every booking fits the live pools before
      // committing any of them.
      std::map<int64_t, cluster::ResourceVector> scratch;
      bool fits = true;
      for (const auto& [key, bookings] : res.bookings) {
        DemandInfo info = hooks_.demand(key);
        if (!info.exists || info.remaining <= 0) {
          fits = false;
          break;
        }
        for (const Reservation::Booking& b : bookings) {
          MachineView view = hooks_.machine(b.machine);
          cluster::ResourceVector want =
              scratch[b.machine] + info.unit * b.count;
          if (!view.online || !want.FitsIn(view.free)) {
            fits = false;
            break;
          }
          scratch[b.machine] = want;
        }
        if (!fits) break;
      }
      if (!fits) {
        ++gang_aborts_n_;
        if (gang_abort_counter_ != nullptr) gang_abort_counter_->Add();
        Audit(obs::DecisionKind::kReserve, res.bookings.begin()->first,
              obs::RejectReason::kGangPartialFit, 0, -1,
              "gang=" + std::to_string(res.gang_id) +
                  " abort: member booking no longer fits");
        ReleaseReservation(id);
        continue;  // PlanGangs re-plans it this same tick
      }
      // Release the book first so the committed grants' own running
      // claims do not stack on top of the reservation claims.
      uint64_t gang_id = res.gang_id;
      ReleaseReservation(id);
      for (const auto& [key, bookings] : res.bookings) {
        int64_t granted = 0;
        for (const Reservation::Booking& b : bookings) {
          granted += hooks_.commit(key, b.machine, b.count);
        }
        Audit(obs::DecisionKind::kReserve, key, obs::RejectReason::kNone,
              granted, -1,
              "gang=" + std::to_string(gang_id) + " started atomically",
              bookings);
      }
      auto g = gangs_.find(gang_id);
      if (g != gangs_.end()) g->second.started = true;
      if (reservation_wait_hist_ != nullptr) {
        reservation_wait_hist_->Add(now - res.requested_at);
      }
      continue;
    }

    // Single advance reservation.
    const PlanKey key = res.bookings.begin()->first;
    DemandInfo info = hooks_.demand(key);
    if (info.deadline > 0 && now + info.estimate > info.deadline) {
      ReleaseReservation(id);
      ExpireDemand(key, "deadline unreachable at conversion");
      continue;
    }
    std::vector<Reservation::Booking> bookings = res.bookings.begin()->second;
    ReleaseReservation(id);
    int64_t granted = 0;
    for (const Reservation::Booking& b : bookings) {
      granted += hooks_.commit(key, b.machine, b.count);
    }
    converted_.insert(key);  // places normally from here on
    if (reservation_wait_hist_ != nullptr) {
      reservation_wait_hist_->Add(now - res.requested_at);
    }
    Audit(obs::DecisionKind::kReserve, key, obs::RejectReason::kNone, granted,
          bookings.empty() ? -1 : bookings.front().machine,
          "reservation converted (" + std::to_string(granted) + " units)",
          bookings);
  }
}

void ClusterPlanner::PlanReservations(double now) {
  for (const auto& [key, info] : hooks_.all_demands()) {
    if (!info.reservation || info.gang_id != 0) continue;
    if (info.remaining <= 0) continue;
    if (converted_.count(key) > 0) continue;
    if (res_of_key_.count(key) > 0) continue;
    reservation_keys_.insert(key);
    if (info.estimate <= 0) {
      // The scheduler validates this on ingest; defend anyway.
      ExpireDemand(key, "reservation without lifetime estimate");
      continue;
    }
    double from = std::max(now, info.reserve_start);
    auto spot = FindEarliest(from, info.estimate, info.unit, info.remaining,
                             /*skip_owner=*/0);
    bool feasible =
        spot.has_value() &&
        (info.deadline <= 0 || spot->start + info.estimate <= info.deadline);
    if (!feasible) {
      ExpireDemand(key, spot.has_value()
                            ? "earliest start misses deadline"
                            : "no future window fits the demand");
      continue;
    }
    std::map<PlanKey, std::vector<Reservation::Booking>> bookings;
    bookings[key] = std::move(spot->bookings);
    uint64_t id = Book(spot->start, spot->start + info.estimate, 0, false,
                       now, bookings);
    Audit(obs::DecisionKind::kReserve, key, obs::RejectReason::kNone,
          info.remaining, -1,
          "reserve=" + std::to_string(id) +
              " start=" + std::to_string(spot->start) +
              " end=" + std::to_string(spot->start + info.estimate),
          bookings[key], /*provisional=*/true);
  }
}

bool ClusterPlanner::TryPlaceGangAt(
    double t, double d, const std::vector<std::pair<PlanKey, DemandInfo>>& members,
    std::map<PlanKey, std::vector<Reservation::Booking>>* out) const {
  std::map<int64_t, cluster::ResourceVector> taken;
  out->clear();
  for (const auto& [key, info] : members) {
    int64_t need = info.remaining;
    std::vector<Reservation::Booking> bookings;
    double end = t + d;
    for (int64_t m = 0;
         m < static_cast<int64_t>(timelines_.size()) && need > 0; ++m) {
      MachineView view = hooks_.machine(m);
      if (!view.online) continue;
      const Timeline& tl = timelines_[static_cast<size_t>(m)];
      cluster::ResourceVector avail =
          tl.MinAvailable(t, end, view.free + tl.RunningLoadAt(now_), 0)
              .ClampNonNegative();
      auto taken_it = taken.find(m);
      if (taken_it != taken.end()) {
        avail = (avail - taken_it->second).ClampNonNegative();
      }
      int64_t n = std::min(need, avail.DivideBy(info.unit));
      if (n <= 0) continue;
      bookings.push_back(Reservation::Booking{m, n});
      taken[m] += info.unit * n;
      need -= n;
    }
    if (need > 0) return false;  // all-or-nothing: leave *out empty-handed
    (*out)[key] = std::move(bookings);
  }
  return true;
}

void ClusterPlanner::PlanGangs(double now) {
  for (auto& [gang_id, gang] : gangs_) {
    if (gang.started || gang.reservation != 0) continue;
    if (gang.members.size() < gang.declared_size) continue;  // still forming
    std::vector<std::pair<PlanKey, DemandInfo>> members;
    double max_estimate = 0;
    bool ready = true;
    for (const PlanKey& key : gang.members) {
      DemandInfo info = hooks_.demand(key);
      if (!info.exists || info.remaining <= 0) {
        ready = false;
        break;
      }
      max_estimate = std::max(max_estimate, info.estimate);
      members.emplace_back(key, info);
    }
    if (!ready || members.empty()) continue;
    // A member with no estimate holds its slice forever; the gang
    // window must assume the same.
    double duration = max_estimate > 0 ? max_estimate : kForever;

    std::map<PlanKey, std::vector<Reservation::Booking>> bookings;
    if (TryPlaceGangAt(now, duration == kForever ? kForever - now : duration,
                       members, &bookings)) {
      // Fits right now: commit everything, no reservation needed.
      for (const auto& [key, member_bookings] : bookings) {
        int64_t granted = 0;
        for (const Reservation::Booking& b : member_bookings) {
          granted += hooks_.commit(key, b.machine, b.count);
        }
        Audit(obs::DecisionKind::kReserve, key, obs::RejectReason::kNone,
              granted, -1,
              "gang=" + std::to_string(gang_id) + " placed immediately",
              member_bookings);
      }
      gang.started = true;
      if (reservation_wait_hist_ != nullptr) {
        reservation_wait_hist_->Add(0);
      }
      continue;
    }
    // Find the earliest future point the whole gang fits at once.
    bool booked = false;
    for (double t : CandidateStarts(now)) {
      if (t <= now) continue;
      if (!TryPlaceGangAt(t, duration == kForever ? kForever - t : duration,
                          members, &bookings)) {
        continue;
      }
      double end = duration == kForever ? kForever : t + duration;
      uint64_t id = Book(t, end, gang_id, false, now, bookings);
      for (const auto& [member_key, member_bookings] : bookings) {
        Audit(obs::DecisionKind::kReserve, member_key,
              obs::RejectReason::kNone, 0, -1,
              "reserve=" + std::to_string(id) + " gang=" +
                  std::to_string(gang_id) + " start=" + std::to_string(t) +
                  " end=" + std::to_string(end),
              member_bookings, /*provisional=*/true);
      }
      booked = true;
      break;
    }
    if (!booked) {
      Audit(obs::DecisionKind::kReserve, members.front().first,
            obs::RejectReason::kGangPartialFit, 0, -1,
            "gang=" + std::to_string(gang_id) +
                " does not fit at any scheduled point; holding");
    }
  }
}

void ClusterPlanner::MaintainBackfillHead(double now) {
  // The EASY head: the highest-priority, oldest demand that is still
  // waiting, carries a lifetime estimate, and is not itself a
  // reservation or gang member. One head reservation cluster-wide.
  std::optional<PlanKey> head;
  DemandInfo head_info;
  for (const auto& [key, info] : hooks_.all_demands()) {
    if (info.remaining <= 0 || info.estimate <= 0) continue;
    if (info.reservation || info.gang_id != 0) continue;
    if (!head.has_value() || info.priority > head_info.priority ||
        (info.priority == head_info.priority && info.seq < head_info.seq)) {
      head = key;
      head_info = info;
    }
  }
  // Current head reservation, if any.
  uint64_t current = 0;
  for (const auto& [id, res] : reservations_) {
    if (res.backfill_head) {
      current = id;
      break;
    }
  }
  if (current != 0) {
    const Reservation& res = reservations_.at(current);
    const PlanKey& key = res.bookings.begin()->first;
    DemandInfo info = hooks_.demand(key);
    int64_t reserved = 0;
    for (const auto& b : res.bookings.begin()->second) reserved += b.count;
    bool stale = !head.has_value() || !(key == *head) || !info.exists ||
                 info.remaining != reserved;
    if (stale) {
      ReleaseReservation(current);
      current = 0;
    }
  }
  if (head.has_value() && current == 0) {
    auto spot = FindEarliest(now, head_info.estimate, head_info.unit,
                             head_info.remaining, /*skip_owner=*/0);
    // start == now means it fits immediately — the instantaneous pass
    // will grant it; no fence needed.
    if (spot.has_value() && spot->start > now) {
      std::map<PlanKey, std::vector<Reservation::Booking>> bookings;
      bookings[*head] = std::move(spot->bookings);
      uint64_t id = Book(spot->start, spot->start + head_info.estimate, 0,
                         /*backfill_head=*/true, now, bookings);
      Audit(obs::DecisionKind::kReserve, *head, obs::RejectReason::kNone,
            head_info.remaining, -1,
            "reserve=" + std::to_string(id) + " backfill-head start=" +
                std::to_string(spot->start) +
                " end=" + std::to_string(spot->start + head_info.estimate),
            bookings[*head], /*provisional=*/true);
    }
  }
}

void ClusterPlanner::Reconcile(double now) {
  for (size_t m = 0; m < timelines_.size(); ++m) {
    Timeline& tl = timelines_[m];
    if (tl.claim_count() == 0) continue;
    MachineView view = hooks_.machine(static_cast<int64_t>(m));
    if (!view.online) {
      OnMachineOffline(static_cast<int64_t>(m));
      continue;
    }
    cluster::ResourceVector budget = view.free + tl.RunningLoadAt(now);
    while (!tl.CheckNoOvercommit(budget, now)) {
      // Shed newest promises first: the latest reservation claim loses.
      uint64_t victim_owner = 0;
      uint64_t victim_id = 0;
      for (const auto& [id, claim] : tl.claims()) {
        if (claim.owner != 0 && id > victim_id) {
          victim_id = id;
          victim_owner = claim.owner;
        }
      }
      if (victim_owner == 0) break;  // only running claims: fits by def.
      ReleaseReservation(victim_owner);
      budget = view.free + tl.RunningLoadAt(now);
    }
  }
}

void ClusterPlanner::ExpireDemand(const PlanKey& key,
                                  const std::string& why) {
  Audit(obs::DecisionKind::kReserve, key,
        obs::RejectReason::kReservationExpired, 0, -1, why);
  reservation_keys_.erase(key);
  converted_.erase(key);
  hooks_.expire(key);
}

// --- invariants ---------------------------------------------------------

bool ClusterPlanner::CheckNoOvercommit() const {
  // Rack by rack: each member machine's budget is computed once, checked
  // against its own timeline and summed into the rack's budget. Every
  // machine sits in exactly one rack, so every timeline is checked.
  for (size_t r = 0; r < rack_timelines_.size(); ++r) {
    cluster::ResourceVector rack_budget;
    for (int64_t m : rack_members_[r]) {
      const Timeline& tl = timelines_[static_cast<size_t>(m)];
      MachineView view = hooks_.machine(m);
      if (!view.online) {
        if (tl.claim_count() != 0) return false;
        continue;
      }
      cluster::ResourceVector budget = view.free + tl.RunningLoadAt(now_);
      if (!tl.CheckNoOvercommit(budget, now_)) return false;
      rack_budget += budget;
    }
    if (!rack_timelines_[r].CheckNoOvercommit(rack_budget, now_)) {
      return false;
    }
  }
  return true;
}

bool ClusterPlanner::CheckGangAtomicity(
    const std::function<int64_t(const PlanKey&)>& granted_units) const {
  for (const auto& [gang_id, gang] : gangs_) {
    if (gang.started) continue;
    for (const PlanKey& key : gang.members) {
      if (granted_units(key) != 0) return false;
    }
  }
  return true;
}

// --- introspection ------------------------------------------------------

size_t ClusterPlanner::scheduled_points() const {
  size_t total = 0;
  for (const Timeline& tl : timelines_) total += tl.point_count();
  for (const Timeline& tl : rack_timelines_) total += tl.point_count();
  return total;
}

bool ClusterPlanner::GangStarted(uint64_t gang_id) const {
  auto it = gangs_.find(gang_id);
  return it != gangs_.end() && it->second.started;
}

void ClusterPlanner::UpdatePointsGauge() {
  if (points_gauge_ != nullptr) {
    points_gauge_->Set(static_cast<double>(scheduled_points()));
  }
  if (head_fence_wait_gauge_ != nullptr) {
    // How long the current EASY head has been fenced off waiting for
    // its reservation to start — the telemetry series the watchdog's
    // backfill-head-blocking rule watches. 0 when no head is booked.
    double wait = 0;
    for (const auto& [id, res] : reservations_) {
      if (res.backfill_head) {
        wait = now_ - res.requested_at;
        break;
      }
    }
    head_fence_wait_gauge_->Set(wait);
  }
}

void ClusterPlanner::Audit(
    obs::DecisionKind kind, const PlanKey& key, obs::RejectReason reason,
    int64_t units, int64_t machine, std::string note,
    const std::vector<Reservation::Booking>& bookings, bool provisional) {
  if (audit_ == nullptr) return;
  obs::DecisionRecord record;
  record.kind = kind;
  record.app = key.app;
  record.slot = key.slot;
  record.machine = machine;
  record.reason = reason;
  record.units = units;
  record.note = "planner " + KeyStr(key) + ": " + std::move(note);
  for (const Reservation::Booking& b : bookings) {
    obs::CandidateOutcome c;
    c.app = key.app;
    c.slot = key.slot;
    c.machine = b.machine;
    // A future booking is not a grant: carry the count in `remaining`
    // so grant-flow extraction (granted > 0) ignores it.
    if (provisional) {
      c.remaining = b.count;
    } else {
      c.granted = b.count;
    }
    record.AddCandidate(c);
  }
  audit_->Commit(std::move(record));
}

}  // namespace fuxi::planner
