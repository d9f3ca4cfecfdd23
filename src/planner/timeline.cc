#include "planner/timeline.h"

#include <algorithm>
#include <set>

#include "common/logging.h"

namespace fuxi::planner {

namespace {

/// Componentwise minimum (ResourceVector exposes no direct one):
/// min(a, b) = a - max(a - b, 0).
cluster::ResourceVector CwiseMin(const cluster::ResourceVector& a,
                                 const cluster::ResourceVector& b) {
  return a - (a - b).ClampNonNegative();
}

}  // namespace

void Timeline::ReserveAt(uint64_t id, double start, double end,
                         const cluster::ResourceVector& amount,
                         uint64_t owner) {
  FUXI_CHECK(claims_.count(id) == 0) << "duplicate claim id " << id;
  FUXI_CHECK(start < end) << "empty claim window";
  claims_.emplace(id, Claim{start, end, amount, owner});
}

bool Timeline::Release(uint64_t id) { return claims_.erase(id) > 0; }

size_t Timeline::point_count() const {
  std::set<double> points;
  for (const auto& [id, claim] : claims_) {
    points.insert(claim.start);
    if (claim.end != kForever) points.insert(claim.end);
  }
  return points.size();
}

cluster::ResourceVector Timeline::LoadAt(double t) const {
  cluster::ResourceVector load;
  for (const auto& [id, claim] : claims_) {
    if (claim.start <= t && t < claim.end) load += claim.amount;
  }
  return load;
}

cluster::ResourceVector Timeline::RunningLoadAt(double t) const {
  // Counts every live grant-backed claim admitted at or before t —
  // INCLUDING overrunners whose estimate elapsed (end <= t) but whose
  // grant the scheduler has not released yet. Their capacity is still
  // held, so they must still fold into the budget identity
  // budget = free_now + running; dropping them at estimate expiry made
  // Reconcile shed healthy reservations whenever a unit ran a moment
  // past its estimate.
  cluster::ResourceVector load;
  for (const auto& [id, claim] : claims_) {
    if (claim.owner == 0 && claim.start <= t) load += claim.amount;
  }
  return load;
}

cluster::ResourceVector Timeline::MinAvailable(
    double start, double end, const cluster::ResourceVector& budget,
    uint64_t skip_owner) const {
  // Evaluation points: the window start plus every claim boundary
  // strictly inside the window. Load is constant between them.
  std::set<double> points{start};
  for (const auto& [id, claim] : claims_) {
    if (skip_owner != 0 && claim.owner == skip_owner) continue;
    if (claim.start > start && claim.start < end) points.insert(claim.start);
    if (claim.end != kForever && claim.end > start && claim.end < end) {
      points.insert(claim.end);
    }
  }
  cluster::ResourceVector min_avail = budget;
  bool first = true;
  for (double p : points) {
    cluster::ResourceVector load;
    for (const auto& [id, claim] : claims_) {
      if (skip_owner != 0 && claim.owner == skip_owner) continue;
      if (claim.start <= p && p < claim.end) load += claim.amount;
    }
    cluster::ResourceVector avail = budget - load;
    min_avail = first ? avail : CwiseMin(min_avail, avail);
    first = false;
  }
  return min_avail;
}

bool Timeline::CanPlaceAt(double start, double end,
                          const cluster::ResourceVector& amount,
                          const cluster::ResourceVector& budget,
                          uint64_t skip_owner) const {
  return amount.FitsIn(MinAvailable(start, end, budget, skip_owner));
}

double Timeline::EarliestFit(double from, double duration,
                             const cluster::ResourceVector& amount,
                             const cluster::ResourceVector& budget,
                             uint64_t skip_owner) const {
  std::set<double> starts{from};
  for (const auto& [id, claim] : claims_) {
    if (skip_owner != 0 && claim.owner == skip_owner) continue;
    if (claim.start > from) starts.insert(claim.start);
    if (claim.end != kForever && claim.end > from) starts.insert(claim.end);
  }
  for (double t : starts) {
    double end = duration == kForever ? kForever : t + duration;
    if (CanPlaceAt(t, end, amount, budget, skip_owner)) return t;
  }
  return kForever;
}

std::vector<uint64_t> Timeline::PruneEndedBefore(double now) {
  std::vector<uint64_t> dropped;
  for (auto it = claims_.begin(); it != claims_.end();) {
    if (it->second.end <= now) {
      dropped.push_back(it->first);
      it = claims_.erase(it);
    } else {
      ++it;
    }
  }
  return dropped;
}

std::vector<double> Timeline::PointsAfter(double t, size_t cap) const {
  std::set<double> points;
  for (const auto& [id, claim] : claims_) {
    if (claim.start > t) points.insert(claim.start);
    if (claim.end != kForever && claim.end > t) points.insert(claim.end);
  }
  std::vector<double> out(points.begin(), points.end());
  if (out.size() > cap) out.resize(cap);
  return out;
}

bool Timeline::CheckNoOvercommit(const cluster::ResourceVector& budget,
                                 double from) const {
  // The load is evaluated at `from` and at every claim boundary after
  // it, straight off the claims: a boundary that several claims share is
  // evaluated once per claim, which changes no verdict and needs no
  // de-duplicating point set.
  auto overcommitted_at = [&](double p) {
    return (budget - LoadAt(p)).AnyNegative();
  };
  if (overcommitted_at(from)) return false;
  for (const auto& [id, claim] : claims_) {
    if (claim.start > from && overcommitted_at(claim.start)) return false;
    if (claim.end != kForever && claim.end > from &&
        overcommitted_at(claim.end)) {
      return false;
    }
  }
  return true;
}

}  // namespace fuxi::planner
