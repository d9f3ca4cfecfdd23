// fuxi::planner utilization bench: the same deterministic trace —
// periodic LARGE all-or-nothing jobs (full-machine units, half the
// cluster each) competing with a steady stream of small estimated jobs
// — driven twice through the scheduler:
//
//   greedy   — no planning hints: the instantaneous pass only. Small
//              jobs keep every machine partially busy, so a
//              full-machine unit can start only when an entire machine
//              happens to drain by accident; the large jobs crawl.
//   planner  — lifetime estimates + gang hints: the blocked large
//              demand books an earliest-start reservation, EASY
//              backfill admits only small jobs that provably finish
//              before it, and the gang starts all-or-nothing.
//
// Reported per mode: makespan, time-integrated cpu utilization up to
// the makespan, and the large jobs' full-allocation waits (p50 / p99).
// The planner must win on BOTH axes: the same total work finishes
// sooner (higher utilization over the busy horizon) and the large jobs
// stop starving (lower p99 wait).
//
// Usage: bench_planner_utilization [--machines N] [--large N] [--seed S]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/logging.h"
#include "common/rng.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "resource/scheduler.h"
#include "sim/simulator.h"

namespace fuxi {
namespace {

struct TraceJob {
  double arrival = 0;
  int64_t units = 0;
  int64_t cpu = 0;
  int64_t mem = 0;
  double duration = 0;
  bool large = false;
};

struct RunStats {
  double makespan = 0;
  double cpu_utilization = 0;  ///< busy cpu-seconds / (capacity * makespan)
  std::vector<double> large_waits;
};

/// The shared trace: `large` gangs of full-machine units arriving every
/// 50s, plus a 1-per-second stream of small estimated jobs for the
/// first 150s. Identical for both modes — only the hints differ.
std::vector<TraceJob> BuildTrace(int machines, int large_jobs,
                                 uint64_t seed) {
  std::vector<TraceJob> jobs;
  for (int i = 0; i < large_jobs; ++i) {
    TraceJob job;
    job.arrival = 10.0 + 50.0 * i;
    job.units = machines / 2;
    job.cpu = 400;
    job.mem = 8192;
    job.duration = 30.0;
    job.large = true;
    jobs.push_back(job);
  }
  // The small stream outlives the last large arrival by a wide margin
  // and keeps every machine partially busy — under greedy scheduling a
  // full-machine unit can start only when a machine drains by luck.
  Rng rng(seed);
  for (int t = 0; t < 250; ++t) {
    for (int k = 0; k < 2; ++k) {
      TraceJob job;
      job.arrival = static_cast<double>(t) + 0.5 * k;
      job.units = 3 + static_cast<int64_t>(rng.Uniform(3));
      job.cpu = 100;
      job.mem = 1024;
      job.duration = 5.0 + rng.NextDouble() * 10.0;
      jobs.push_back(job);
    }
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const TraceJob& a, const TraceJob& b) {
              return a.arrival < b.arrival;
            });
  return jobs;
}

RunStats RunTrace(const std::vector<TraceJob>& trace, int machines,
                  bool planned, obs::MetricsRegistry* metrics) {
  cluster::ClusterTopology::Options options;
  options.racks = 4;
  options.machines_per_rack = machines / 4;
  options.machine_capacity = cluster::ResourceVector(400, 8192);
  cluster::ClusterTopology topo = cluster::ClusterTopology::Build(options);
  resource::Scheduler scheduler(&topo);
  if (metrics != nullptr) scheduler.set_metrics(metrics);

  // FUXI_BENCH_AUDIT=<path>: export the planned run's decision-audit
  // dump, a one-section incident bundle (`fuxi explain dump.json
  // --timeline 3` renders machine 3's planner reservation future). The
  // bench owns the audit clock; RunUntil() on an empty queue just
  // advances it, so records are stamped with the trace's virtual time.
  sim::Simulator audit_clock;
  obs::AuditLog audit(&audit_clock, nullptr, /*capacity=*/1 << 16);
  const char* audit_path = std::getenv("FUXI_BENCH_AUDIT");
  if (planned && audit_path != nullptr) scheduler.set_audit(&audit);

  struct Ending {
    double at;
    AppId app;
    uint32_t slot;
    MachineId machine;
    int64_t count;
  };
  struct LargeTracker {
    AppId app;
    double arrival = 0;
    int64_t wanted = 0;
    int64_t granted = 0;
    double full_at = -1;
  };
  std::vector<Ending> endings;
  std::vector<LargeTracker> larges;
  std::vector<const TraceJob*> durations;  // indexed by app id - 1

  double busy_cpu_seconds = 0;
  double last_sample = 0;
  double now = 0;
  size_t next_job = 0;
  const double kDt = 0.5;

  auto absorb = [&](const resource::SchedulingResult& result) {
    for (const resource::Assignment& a : result.assignments) {
      const TraceJob* job = durations[a.app.value() - 1];
      endings.push_back(
          Ending{now + job->duration, a.app, a.slot_id, a.machine, a.count});
      for (LargeTracker& lt : larges) {
        if (lt.app == a.app) {
          lt.granted += a.count;
          if (lt.granted >= lt.wanted && lt.full_at < 0) lt.full_at = now;
        }
      }
    }
    // Preemption: the higher-priority large jobs may revoke small
    // grants. Revoked units go back to waiting and are re-granted
    // later (their work restarts, scheduling a fresh ending).
    for (const resource::Revocation& r : result.revocations) {
      // kAppRelease revocations are the echo of this bench's own
      // Release calls (the completion path) — already accounted.
      if (r.reason == resource::RevocationReason::kAppRelease) continue;
      int64_t remaining = r.count;
      for (Ending& e : endings) {
        if (remaining == 0) break;
        if (e.app == r.app && e.slot == r.slot_id &&
            e.machine == r.machine) {
          int64_t take = std::min(e.count, remaining);
          e.count -= take;
          remaining -= take;
        }
      }
      for (LargeTracker& lt : larges) {
        if (lt.app == r.app) lt.granted -= r.count;
      }
      endings.erase(std::remove_if(endings.begin(), endings.end(),
                                   [](const Ending& e) {
                                     return e.count == 0;
                                   }),
                    endings.end());
    }
  };

  while (next_job < trace.size() || !endings.empty()) {
    audit_clock.RunUntil(now);
    // Arrivals.
    while (next_job < trace.size() && trace[next_job].arrival <= now) {
      const TraceJob& job = trace[next_job];
      AppId app(static_cast<uint64_t>(durations.size()) + 1);
      durations.push_back(&job);
      FUXI_CHECK(scheduler.RegisterApp(app).ok());
      resource::UnitRequestDelta delta;
      delta.slot_id = 0;
      delta.has_def = true;
      delta.def.slot_id = 0;
      delta.def.priority = job.large ? 50 : 100;
      delta.def.resources = cluster::ResourceVector(job.cpu, job.mem);
      delta.total_count_delta = job.units;
      if (planned) {
        delta.has_plan = true;
        delta.plan.estimated_seconds = job.duration;
        if (job.large) {
          delta.plan.gang_id = app.value();
          delta.plan.gang_size = 1;
        }
      }
      if (job.large) {
        larges.push_back(LargeTracker{app, now, job.units, 0, -1});
      }
      resource::ResourceRequest request;
      request.app = app;
      request.units.push_back(delta);
      resource::SchedulingResult result;
      FUXI_CHECK(scheduler.ApplyRequest(request, &result).ok());
      absorb(result);
      ++next_job;
    }
    // Completions.
    for (size_t i = 0; i < endings.size();) {
      if (endings[i].at <= now) {
        Ending e = endings[i];
        endings.erase(endings.begin() + static_cast<std::ptrdiff_t>(i));
        resource::SchedulingResult result;
        FUXI_CHECK(scheduler
                       .Release(e.app, e.slot, e.machine, e.count, &result)
                       .ok());
        absorb(result);
      } else {
        ++i;
      }
    }
    // The planner pass (reservation conversion, gang starts, expiry).
    if (planned) {
      resource::SchedulingResult result;
      scheduler.PlannerTick(now, &result);
      absorb(result);
    }
    if (planned && std::getenv("FUXI_BENCH_DEBUG") != nullptr &&
        now - std::floor(now / 10.0) * 10.0 < kDt / 2) {
      for (const LargeTracker& lt : larges) {
        if (lt.full_at >= 0) continue;
        std::printf("t=%.0f app=%lu granted=%ld/%ld", now,
                    static_cast<unsigned long>(lt.app.value()), lt.granted,
                    lt.wanted);
        if (scheduler.planner_active()) {
          for (const auto& [id, res] :
               scheduler.planner()->reservations()) {
            size_t booked = 0;
            for (const auto& [key, bookings] : res.bookings) {
              if (key.app == lt.app.value()) booked += bookings.size();
            }
            if (booked > 0) {
              std::printf(" res=%lu start=%.1f booked=%zu",
                          static_cast<unsigned long>(id), res.start, booked);
            }
          }
        }
        std::printf("\n");
      }
    }
    // Utilization sample (piecewise-constant between steps).
    busy_cpu_seconds +=
        static_cast<double>(scheduler.TotalGranted().cpu()) *
        (now - last_sample);
    last_sample = now;
    now += kDt;
  }

  if (planned && audit_path != nullptr) {
    std::ofstream out(audit_path);
    out << obs::ExportAuditJson(audit.Snapshot());
    std::fprintf(stderr, "planner audit dump written to %s\n", audit_path);
  }

  RunStats stats;
  stats.makespan = last_sample;
  double capacity_cpu = static_cast<double>(scheduler.TotalCapacity().cpu());
  stats.cpu_utilization =
      100.0 * busy_cpu_seconds / (capacity_cpu * stats.makespan);
  for (const LargeTracker& lt : larges) {
    FUXI_CHECK(lt.full_at >= 0)
        << "large job never fully allocated: mode="
        << (planned ? "planner" : "greedy") << " app=" << lt.app.value()
        << " granted=" << lt.granted << "/" << lt.wanted
        << " makespan=" << stats.makespan;
    stats.large_waits.push_back(lt.full_at - lt.arrival);
  }
  std::sort(stats.large_waits.begin(), stats.large_waits.end());
  return stats;
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace
}  // namespace fuxi

int main(int argc, char** argv) {
  using namespace fuxi;
  SetLogLevel(LogLevel::kError);
  int machines = 32;
  int large_jobs = 4;
  uint64_t seed = 7;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--machines") == 0 && i + 1 < argc) {
      machines = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--large") == 0 && i + 1 < argc) {
      large_jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    }
  }
  machines = std::max(4, machines / 4 * 4);  // whole racks

  std::vector<TraceJob> trace = BuildTrace(machines, large_jobs, seed);
  RunStats greedy = RunTrace(trace, machines, /*planned=*/false, nullptr);

  obs::MetricsRegistry metrics;
  RunStats planner = RunTrace(trace, machines, /*planned=*/true, &metrics);

  std::printf(
      "=== fuxi::planner utilization vs greedy (%d machines, %zu jobs, "
      "%d large gangs) ===\n\n",
      machines, trace.size(), large_jobs);
  std::printf("%-28s %12s %12s\n", "", "greedy", "planner");
  std::printf("%-28s %11.1fs %11.1fs\n", "makespan", greedy.makespan,
              planner.makespan);
  std::printf("%-28s %11.1f%% %11.1f%%\n", "cpu utilization (to makespan)",
              greedy.cpu_utilization, planner.cpu_utilization);
  std::printf("%-28s %11.1fs %11.1fs\n", "large-gang wait p50",
              Percentile(greedy.large_waits, 0.5),
              Percentile(planner.large_waits, 0.5));
  std::printf("%-28s %11.1fs %11.1fs\n", "large-gang wait p99",
              Percentile(greedy.large_waits, 0.99),
              Percentile(planner.large_waits, 0.99));

  std::printf("\nplanner metrics (satellite check):\n");
  for (const auto& [name, counter] : metrics.counters()) {
    if (name.rfind("planner.", 0) == 0) {
      std::printf("  %-32s %10lu\n", name.c_str(),
                  static_cast<unsigned long>(counter->value()));
    }
  }
  for (const auto& [name, gauge] : metrics.gauges()) {
    if (name.rfind("planner.", 0) == 0) {
      std::printf("  %-32s %10.0f\n", name.c_str(), gauge->value());
    }
  }
  for (const auto& [name, histogram] : metrics.histograms()) {
    if (name.rfind("planner.", 0) == 0) {
      std::printf("  %-32s count=%lu p50=%.1f\n", name.c_str(),
                  static_cast<unsigned long>(histogram->count()),
                  histogram->Percentile(0.5));
    }
  }

  bool ok = planner.cpu_utilization > greedy.cpu_utilization &&
            Percentile(planner.large_waits, 0.99) <
                Percentile(greedy.large_waits, 0.99);
  std::printf("\n%s\n", ok ? "PLANNER WINS ON BOTH AXES"
                           : "PLANNER DID NOT IMPROVE — regression");
  return ok ? 0 : 1;
}
