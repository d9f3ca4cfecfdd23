// Chaos campaign runner: sweeps seeded random fault schedules over the
// simulated cluster while the InvariantMonitor checks safety and
// liveness continuously (see EXPERIMENTS.md "Chaos campaigns").
//
//   bench_chaos_campaign                 # default sweep, seeds 1..25
//   bench_chaos_campaign --seeds 200     # wider sweep
//   bench_chaos_campaign --first 1000    # different seed range
//   bench_chaos_campaign --seed 50       # replay one seed, full dump
//   bench_chaos_campaign --jobs max      # fan seeds across all cores
//   bench_chaos_campaign --jobs 4        # ... or a fixed worker count
//                        # (per-seed output lines, digests and exit
//                        # status are byte-identical to --jobs 1; the
//                        # wall-clock summary goes to stderr)
//   bench_chaos_campaign --seed 1 --seed-restore-bug
//                        # seed the Figure 7 double-grant regression;
//                        # the run must FAIL and dump its causal trace
//   bench_chaos_campaign --serialize-on-send
//                        # every control-plane message round-trips
//                        # through its wire codec at Send; hashes and
//                        # event counts must match the default mode
//   bench_chaos_campaign --shards 4
//                        # federated sweep: shard crash-loops,
//                        # directory-replica outages and the mid-window
//                        # spillover wave, with per-shard AND global
//                        # invariants checked
//   bench_chaos_campaign --tenants 6 [--tenant-depth D]
//                        # multi-tenant sweep: every master carries a
//                        # hierarchical fair-share tree (depth 1 = the
//                        # legacy flat quota shape), apps submit under
//                        # leaf tenants, and the tenant-starvation
//                        # watchdog rule is armed; per-node conservation
//                        # runs inside every heavy invariant sweep
//
// Exit status is non-zero when any campaign violates an invariant or
// fails to complete; the failure dump contains the fault schedule and
// the digest trace, both of which replay byte-identically from the
// seed. A failing campaign, and any single-seed replay even on PASS,
// writes one incident bundle, fuxi_incident_seed<N>.json
// (chaos::IncidentJson): the flight-recorder snapshot taken at the
// first violation (a Chrome trace, so it loads in Perfetto), the
// decision audit, the virtual-time telemetry dump and the end-of-run
// metrics. `fuxi spans|wire|explain|dash <bundle>` navigates it.
// --sweep-metrics PATH writes the sweep runner's own accounting
// (tasks/steals/workers/wall) as a bundle holding only `metrics`.
// Bundles are written from the main thread after the sweep joined, so
// parallel runs never interleave dumps.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "obs/exporters.h"
#include "obs/metrics_registry.h"
#include "sweep/sweep_runner.h"

namespace {

/// Prints one campaign's result line and, for failures or single-seed
/// replays, the full dump plus the incident bundle. Called from the
/// main thread only, in seed order.
bool Report(const fuxi::chaos::CampaignResult& result, bool single) {
  std::printf(
      "seed=%llu %s events=%llu heavy_checks=%llu instances=%lld "
      "done_at=%.1f hash=%016llx digest=%016llx violations=%zu\n",
      static_cast<unsigned long long>(result.seed),
      result.ok() ? "PASS" : "FAIL",
      static_cast<unsigned long long>(result.events),
      static_cast<unsigned long long>(result.heavy_checks),
      static_cast<long long>(result.instances_done), result.completed_at,
      static_cast<unsigned long long>(result.state_hash),
      static_cast<unsigned long long>(result.replay_digest),
      result.violations.size());
  if (!result.ok() || single) {
    std::string dump = fuxi::chaos::FormatCampaignFailure(result);
    std::fputs(dump.c_str(), result.ok() ? stdout : stderr);
    std::string path =
        "fuxi_incident_seed" + std::to_string(result.seed) + ".json";
    std::ofstream out(path, std::ios::binary);
    out << fuxi::chaos::IncidentJson(result).Dump();
    std::fprintf(stderr,
                 "incident bundle written to %s (navigate with "
                 "fuxi spans|wire|explain|dash %s)\n",
                 path.c_str(), path.c_str());
  }
  return result.ok();
}

/// Writes the sweep runner's accounting as a bundle holding only the
/// `metrics` section, which `fuxi wire` renders. stderr-noted, never on
/// stdout: the realtime rows (steals/workers/wall) vary run to run.
void WriteSweepMetrics(const fuxi::sweep::SweepRunnerStats& stats,
                       const char* path) {
  fuxi::obs::MetricsRegistry registry;
  fuxi::sweep::ExportStats(stats, &registry);
  fuxi::Json bundle = fuxi::Json::MakeObject();
  bundle["metrics"] = fuxi::obs::MetricsToCsv(registry);
  std::ofstream out(path, std::ios::binary);
  out << bundle.Dump();
  std::fprintf(stderr,
               "sweep metrics written to %s (render with fuxi wire %s)\n",
               path, path);
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t first_seed = 1;
  int count = 25;
  bool single = false;
  bool seed_restore_bug = false;
  bool serialize_on_send = false;
  int shards = 1;
  int tenants = 0;
  int tenant_depth = 2;
  int jobs = 1;
  const char* sweep_metrics_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      count = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--first") == 0 && i + 1 < argc) {
      first_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      first_seed = std::strtoull(argv[++i], nullptr, 10);
      count = 1;
      single = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = fuxi::sweep::ParseJobs(argv[++i]);
    } else if (std::strcmp(argv[i], "--seed-restore-bug") == 0) {
      seed_restore_bug = true;
    } else if (std::strcmp(argv[i], "--serialize-on-send") == 0) {
      serialize_on_send = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--tenants") == 0 && i + 1 < argc) {
      tenants = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--tenant-depth") == 0 && i + 1 < argc) {
      tenant_depth = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--sweep-metrics") == 0 && i + 1 < argc) {
      sweep_metrics_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seeds N] [--first S] [--seed S] "
                   "[--jobs N|max] [--seed-restore-bug] "
                   "[--serialize-on-send] [--shards N] "
                   "[--tenants N] [--tenant-depth D] "
                   "[--sweep-metrics PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  fuxi::chaos::CampaignConfig config;
  if (shards > 1) config = fuxi::chaos::ShardedCampaignConfig(shards);
  config.cluster.network.serialize_on_send = serialize_on_send;
  config.tenants = tenants;
  config.tenant_depth = tenant_depth;
  // Single-seed replays always export the decision audit so
  // `fuxi explain` (including --tenant) has input even on PASS.
  config.dump_audit = single;
  if (seed_restore_bug) {
    config.seed_restore_bug = true;
    // The periodic agent/master allocation reconcile would repair the
    // double grant before the monitor's sustained window elapses; the
    // seeded regression disables it, like the scripted chaos tests.
    config.cluster.agent.allocation_report_every = 0;
  }

  int failed = 0;
  if (jobs == 1) {
    // Serial mode streams each line as its campaign finishes.
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < count; ++i) {
      uint64_t seed = first_seed + static_cast<uint64_t>(i);
      if (!Report(fuxi::chaos::RunCampaign(seed, config), single)) ++failed;
    }
    std::printf("chaos sweep: %d/%d campaigns passed\n", count - failed,
                count);
    if (sweep_metrics_path != nullptr) {
      fuxi::sweep::SweepRunnerStats stats;
      stats.tasks = static_cast<size_t>(count > 0 ? count : 0);
      stats.wall_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      WriteSweepMetrics(stats, sweep_metrics_path);
    }
    return failed == 0 ? 0 : 1;
  }

  // Parallel mode: fan the seeds across the work-stealing pool, then
  // report in seed order from the main thread — stdout is byte-
  // identical to --jobs 1.
  fuxi::sweep::SweepRunner runner({jobs});
  std::vector<fuxi::chaos::CampaignResult> results(
      static_cast<size_t>(count > 0 ? count : 0));
  runner.Run(results.size(), [&results, first_seed, &config](size_t i) {
    results[i] =
        fuxi::chaos::RunCampaign(first_seed + static_cast<uint64_t>(i),
                                 config);
  });
  for (const fuxi::chaos::CampaignResult& result : results) {
    if (!Report(result, single)) ++failed;
  }
  std::printf("chaos sweep: %d/%d campaigns passed\n", count - failed, count);
  // Wall-clock goes to stderr: CI legs diff stdout across wire modes.
  std::fprintf(stderr, "sweep wall-clock: %.3fs (jobs=%d, steals=%zu)\n",
               runner.stats().wall_seconds, runner.jobs(),
               runner.stats().steals);
  if (sweep_metrics_path != nullptr) {
    WriteSweepMetrics(runner.stats(), sweep_metrics_path);
  }
  return failed == 0 ? 0 : 1;
}
