// Fair-share gates for the hierarchical tenant tree (DESIGN.md §16):
//
//  1. Starvation-freedom at scale: a Zipf-skewed population of 1,000
//     tenants over-subscribes a 100-machine cluster ~2.4x. The gate is
//     that every tenant with queued demand ends up holding at least
//     min(demand, guaranteed units) within a bounded number of repair
//     rounds — no leaf starves below its minimum guarantee, however
//     greedy the heavy tail is.
//  2. Dominant-share convergence: equal-weight sibling tenants, each
//     demanding the whole cluster, must converge to equal dominant
//     resource shares (the DRF equilibrium) within a bounded ratio.
//
// Both gates exit non-zero on failure so CI can pin them.
//
//   bench_fairshare --audit PATH   # also write the starvation gate's
//                                  # decision-audit dump: a clamp-rich
//                                  # input for fuxi explain --tenant (a
//                                  # one-section incident bundle; see
//                                  # EXPERIMENTS.md)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/audit.h"
#include "resource/scheduler.h"
#include "trace/workloads.h"

namespace {

using namespace fuxi;

constexpr uint64_t kSeed = 7;

cluster::ClusterTopology ContendedTopology() {
  cluster::ClusterTopology::Options options;
  options.racks = 4;
  options.machines_per_rack = 25;  // 100 machines
  options.machine_capacity = cluster::ResourceVector(1200, 96 * 1024);
  return cluster::ClusterTopology::Build(options);
}

void Submit(resource::Scheduler* scheduler, AppId app,
            const cluster::ResourceVector& unit, int64_t units) {
  resource::ResourceRequest request;
  request.app = app;
  resource::UnitRequestDelta delta;
  delta.slot_id = 0;
  delta.has_def = true;
  delta.def.resources = unit;
  delta.total_count_delta = units;
  request.units.push_back(delta);
  resource::SchedulingResult result;
  FUXI_CHECK(scheduler->ApplyRequest(request, &result).ok());
}

/// One repair round: every app re-presents its (unchanged) demand,
/// which re-runs placement and the preemption sweep for anything still
/// unmet — the bench's stand-in for the master's periodic tick.
void Round(resource::Scheduler* scheduler, const std::vector<AppId>& apps) {
  for (AppId app : apps) {
    resource::ResourceRequest request;
    request.app = app;
    resource::UnitRequestDelta delta;
    delta.slot_id = 0;
    request.units.push_back(delta);
    resource::SchedulingResult result;
    FUXI_CHECK(scheduler->ApplyRequest(request, &result).ok());
  }
}

int64_t UnitsGranted(const resource::Scheduler& scheduler, AppId app) {
  int64_t units = 0;
  for (const auto& grant : scheduler.GrantsOf(app)) units += grant.count;
  return units;
}

// ------------------------------------------ gate 1: starvation-freedom

bool StarvationFreedomGate(const char* audit_path) {
  std::printf("--- gate 1: starvation-freedom on 1,000 tenants ---\n");
  cluster::ClusterTopology topology = ContendedTopology();
  resource::Scheduler scheduler(&topology);
  obs::AuditLog audit(nullptr, nullptr);
  if (audit_path != nullptr) scheduler.set_audit(&audit);

  trace::TenantPopulationOptions options;
  options.tenants = 1000;
  options.depth = 2;
  options.max_units = 1024;  // heavy head: ~2.4x oversubscription
  const cluster::ResourceVector unit = options.unit;
  trace::TenantPopulation population =
      trace::MakeTenantPopulation(kSeed, scheduler.TotalCapacity(), options);
  for (const trace::TenantPopulation::Node& node : population.nodes) {
    FUXI_CHECK(
        scheduler.CreateTenantNode(node.path, node.guarantee, node.weight)
            .ok());
  }

  std::vector<AppId> apps;
  apps.reserve(population.tenants.size());
  int64_t total_demand = 0;
  for (size_t i = 0; i < population.tenants.size(); ++i) {
    const trace::TenantSpec& spec = population.tenants[i];
    AppId app(static_cast<int64_t>(i) + 1);
    FUXI_CHECK(scheduler.RegisterApp(app, spec.path).ok());
    apps.push_back(app);
    total_demand += spec.demand_units;
  }
  const int64_t cluster_units = scheduler.TotalCapacity().DivideBy(unit);
  std::printf("tenants=%zu nodes=%zu demand=%lld units capacity=%lld units\n",
              population.tenants.size(), scheduler.fairshare().node_count(),
              static_cast<long long>(total_demand),
              static_cast<long long>(cluster_units));

  auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < population.tenants.size(); ++i) {
    Submit(&scheduler, apps[i], unit, population.tenants[i].demand_units);
  }

  // A tenant is starved while it holds fewer units than it is entitled
  // to: its demand, capped by what its guarantee covers.
  auto entitled = [&](const trace::TenantSpec& spec) {
    const resource::FairShareTree::Node* node =
        scheduler.fairshare().FindNode(spec.path);
    FUXI_CHECK(node != nullptr);
    return std::min(spec.demand_units, node->guarantee.DivideBy(unit));
  };
  constexpr int kMaxRounds = 32;
  int rounds = 0;
  size_t starved = 0;
  for (; rounds <= kMaxRounds; ++rounds) {
    starved = 0;
    for (size_t i = 0; i < apps.size(); ++i) {
      if (UnitsGranted(scheduler, apps[i]) < entitled(population.tenants[i])) {
        ++starved;
      }
    }
    if (starved == 0 || rounds == kMaxRounds) break;
    Round(&scheduler, apps);
  }
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const int64_t granted_units = scheduler.TotalGranted().DivideBy(unit);
  FUXI_CHECK(scheduler.CheckInvariants());  // per-node conservation held
  std::printf("rounds=%d granted=%lld/%lld units elapsed=%.2fs\n", rounds,
              static_cast<long long>(granted_units),
              static_cast<long long>(cluster_units), elapsed);
  bool ok = starved == 0;
  std::printf("starved tenants after %d rounds: %zu -> %s\n", rounds, starved,
              ok ? "PASS" : "FAIL");
  if (audit_path != nullptr) {
    std::ofstream out(audit_path, std::ios::binary);
    out << obs::ExportAuditJson(audit.Snapshot());
    std::printf("decision-audit dump written to %s (query with "
                "fuxi explain %s --tenant)\n",
                audit_path, audit_path);
  }
  return ok;
}

// ------------------------------------- gate 2: dominant-share convergence

bool DominantShareConvergenceGate() {
  std::printf("\n--- gate 2: dominant-share convergence, equal siblings ---\n");
  cluster::ClusterTopology topology = ContendedTopology();
  resource::Scheduler scheduler(&topology);
  const cluster::ResourceVector capacity = scheduler.TotalCapacity();
  const cluster::ResourceVector unit(50, 2048);
  const int64_t cluster_units = capacity.DivideBy(unit);

  constexpr int kSiblings = 8;
  FUXI_CHECK(scheduler.CreateTenantNode("pool", capacity).ok());
  cluster::ResourceVector slice;
  for (cluster::DimensionId d = 0; d < cluster::kMaxDimensions; ++d) {
    slice.Set(d, capacity.Get(d) / kSiblings);
  }
  std::vector<AppId> apps;
  std::vector<std::string> paths;
  for (int c = 0; c < kSiblings; ++c) {
    std::string path = "pool/c" + std::to_string(c);
    FUXI_CHECK(scheduler.CreateTenantNode(path, slice).ok());
    AppId app(c + 1);
    FUXI_CHECK(scheduler.RegisterApp(app, path).ok());
    apps.push_back(app);
    paths.push_back(std::move(path));
    // Everyone wants the whole cluster; fair share must even it out.
    Submit(&scheduler, app, unit, cluster_units);
  }

  auto shares = [&](double* lo, double* hi) {
    *lo = 1.0;
    *hi = 0.0;
    for (const std::string& path : paths) {
      const resource::FairShareTree::Node* node =
          scheduler.fairshare().FindNode(path);
      FUXI_CHECK(node != nullptr);
      double share = scheduler.fairshare().DominantShare(*node, capacity);
      *lo = std::min(*lo, share);
      *hi = std::max(*hi, share);
    }
  };
  constexpr int kMaxRounds = 64;
  const double fair = 1.0 / kSiblings;
  double lo = 0;
  double hi = 0;
  int rounds = 0;
  for (; rounds <= kMaxRounds; ++rounds) {
    shares(&lo, &hi);
    if ((lo >= 0.9 * fair && hi <= 1.1 * fair) || rounds == kMaxRounds) break;
    Round(&scheduler, apps);
  }
  FUXI_CHECK(scheduler.CheckInvariants());
  for (const std::string& path : paths) {
    const resource::FairShareTree::Node* node =
        scheduler.fairshare().FindNode(path);
    std::printf("  %-8s dominant=%.4f\n", path.c_str(),
                scheduler.fairshare().DominantShare(*node, capacity));
  }
  bool ok = lo >= 0.9 * fair && hi <= 1.1 * fair;
  std::printf("rounds=%d dominant-share band [%.4f, %.4f] fair=%.4f -> %s\n",
              rounds, lo, hi, fair, ok ? "PASS" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  fuxi::SetLogLevel(fuxi::LogLevel::kError);
  const char* audit_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--audit") == 0 && i + 1 < argc) {
      audit_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--audit PATH]\n", argv[0]);
      return 2;
    }
  }
  bool ok = StarvationFreedomGate(audit_path);
  ok = DominantShareConvergenceGate() && ok;
  std::printf("\nbench_fairshare: %s\n", ok ? "ALL GATES PASS" : "GATE FAILURE");
  return ok ? 0 : 1;
}
