// Reproduces Figure 9: FuxiMaster request scheduling time with the
// §5.2 synthetic workload (1,000 concurrent WordCount/TeraSort jobs on
// 5,000 machines in the paper; scaled by default — set FUXI_BENCH_FULL=1
// for paper dimensions).
//
// The scheduler code is real; each request's handling is timed with the
// wall clock while the surrounding cluster is simulated. Paper: average
// 0.88 ms per request, peaks < 3 ms.
//
//   bench_fig9_scheduling_time               # single point, env-scaled
//   bench_fig9_scheduling_time --ladder      # cluster-size ladder
//   bench_fig9_scheduling_time --ladder --sharded
//                     # federated ladder: 20k/50k machines over 8/16
//                     # shard masters (100k/32 with FUXI_BENCH_FULL=1),
//                     # per-request times merged across shard primaries
//   bench_fig9_scheduling_time --smoke       # one short point (CI guard)
//   bench_fig9_scheduling_time --json PATH   # where to write the report
//
// Every mode writes a machine-readable BENCH_fig9.json (p50/p99 per
// cluster size); scripts/check_fig9_regression.py compares such a
// report against bench/baselines/BENCH_fig9.json and fails on >2x
// regression — the CI smoke step that guards the incremental-scheduling
// fast path.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/json.h"
#include "common/metrics.h"

namespace {

using namespace fuxi;

struct PointResult {
  bench::BenchScale scale;
  uint64_t requests = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
  uint64_t schedule_passes = 0;
  uint64_t passes_skipped = 0;
};

/// Runs one cluster size and collects the per-request decision-time
/// distribution. The first half of the run is warm-up (queues deepen
/// until demand saturates supply); percentiles are computed over the
/// steady-state second half only. `print_series` additionally prints
/// the Figure 9 style windowed time series (single-point mode only).
PointResult RunPoint(const bench::BenchScale& scale, bool print_series) {
  runtime::SimCluster cluster(
      bench::BenchClusterOptions(scale.machines, scale.shards));
  cluster.Start();
  cluster.RunFor(2.0);
  // In the federated ladder every shard primary schedules its own
  // machines; the request-time distribution merges all of them.
  std::vector<master::FuxiMaster*> primaries;
  for (int k = 0; k < cluster.shard_count(); ++k) {
    master::FuxiMaster* primary = cluster.shard_primary(k);
    FUXI_CHECK(primary != nullptr);
    primary->EnableDecisionTiming(true);
    primaries.push_back(primary);
  }

  bench::WorkloadDriver driver(&cluster, scale, 42);
  driver.Start();
  double t0 = cluster.sim().Now();

  // Sample the decision-time series in 10-virtual-second windows.
  TimeSeries series;
  std::vector<size_t> consumed(primaries.size(), 0);
  std::vector<size_t> steady_from(primaries.size(), 0);
  while (cluster.sim().Now() - t0 < scale.duration) {
    cluster.RunFor(10.0);
    Histogram window;
    for (size_t p = 0; p < primaries.size(); ++p) {
      const std::vector<double>& samples = primaries[p]->decision_micros();
      for (size_t i = consumed[p]; i < samples.size(); ++i) {
        window.Add(samples[i] / 1000.0);  // ms
      }
      consumed[p] = samples.size();
      if (cluster.sim().Now() - t0 <= scale.duration / 2) {
        steady_from[p] = samples.size();
      }
    }
    if (window.count() > 0) {
      series.Add(cluster.sim().Now() - t0, window.mean());
    }
  }

  Histogram all;
  PointResult point;
  for (size_t p = 0; p < primaries.size(); ++p) {
    const std::vector<double>& samples = primaries[p]->decision_micros();
    for (size_t i = steady_from[p]; i < samples.size(); ++i) {
      all.Add(samples[i] / 1000.0);
    }
    point.schedule_passes += primaries[p]->scheduler()->scheduling_passes();
    point.passes_skipped += primaries[p]->scheduler()->passes_skipped();
  }

  point.scale = scale;
  point.requests = all.count();
  point.mean_ms = all.mean();
  point.p50_ms = all.Percentile(50);
  point.p95_ms = all.Percentile(95);
  point.p99_ms = all.Percentile(99);
  point.max_ms = all.max();

  std::printf(
      "machines=%d shards=%d jobs=%d duration=%.0fs: requests=%llu "
      "mean=%.4f p50=%.4f p95=%.4f p99=%.4f max=%.4f ms (passes=%llu "
      "skipped=%llu)\n",
      scale.machines, scale.shards, scale.concurrent_jobs, scale.duration,
      static_cast<unsigned long long>(point.requests), point.mean_ms,
      point.p50_ms, point.p95_ms, point.p99_ms, point.max_ms,
      static_cast<unsigned long long>(point.schedule_passes),
      static_cast<unsigned long long>(point.passes_skipped));
  if (print_series) {
    std::printf("jobs completed during the window: %lld\n",
                static_cast<long long>(driver.jobs_completed()));
    std::printf("\ntime(s)  mean scheduling time per window (ms)\n");
    // Bound to a local: a range-for over `Downsample(30).points()` would
    // read a reference into a temporary destroyed before the loop body.
    const TimeSeries downsampled = series.Downsample(30);
    for (const TimeSeries::Point& p : downsampled.points()) {
      std::printf("%7.0f  %.4f\n", p.time, p.value);
    }
    std::printf("\nper-request scheduling time (ms): %s\n",
                all.Summary().c_str());
  }
  return point;
}

Json ToJson(const std::vector<PointResult>& points, const char* mode) {
  Json report = Json::MakeObject();
  report["bench"] = "fig9_scheduling_time";
  report["mode"] = mode;
  report["workload"] = "synthetic WordCount/TeraSort mix, seed 42";
  Json array = Json::MakeArray();
  for (const PointResult& p : points) {
    Json entry = Json::MakeObject();
    entry["machines"] = p.scale.machines;
    entry["shards"] = p.scale.shards;
    entry["concurrent_jobs"] = p.scale.concurrent_jobs;
    entry["duration_s"] = p.scale.duration;
    entry["requests"] = p.requests;
    entry["mean_ms"] = p.mean_ms;
    entry["p50_ms"] = p.p50_ms;
    entry["p95_ms"] = p.p95_ms;
    entry["p99_ms"] = p.p99_ms;
    entry["max_ms"] = p.max_ms;
    entry["schedule_passes"] = p.schedule_passes;
    entry["passes_skipped"] = p.passes_skipped;
    array.Append(std::move(entry));
  }
  report["points"] = std::move(array);
  return report;
}

/// Short-duration points so the full ladder (including the paper's
/// 5,000-machine size) stays runnable in CI-class time budgets.
std::vector<bench::BenchScale> LadderScales() {
  std::vector<bench::BenchScale> scales;
  struct Shape {
    int machines;
    int jobs;
    double duration;
  };
  for (const Shape& shape : std::vector<Shape>{{500, 450, 120},
                                               {1000, 600, 90},
                                               {2000, 800, 70},
                                               {5000, 1000, 60}}) {
    bench::BenchScale scale;
    scale.machines = shape.machines;
    scale.concurrent_jobs = shape.jobs;
    scale.duration = shape.duration;
    scales.push_back(scale);
  }
  return scales;
}

/// The federated ladder: cluster sizes past any single FuxiMaster,
/// partitioned into shards of ~2,500-3,200 machines. The 100k point is
/// paper-scale-and-beyond and only runs under FUXI_BENCH_FULL=1.
std::vector<bench::BenchScale> ShardedLadderScales() {
  std::vector<bench::BenchScale> scales;
  struct Shape {
    int machines;
    int shards;
    int jobs;
    double duration;
  };
  std::vector<Shape> shapes{{20000, 8, 1200, 40}, {50000, 16, 1500, 30}};
  if (const char* full = std::getenv("FUXI_BENCH_FULL");
      full != nullptr && full[0] == '1') {
    shapes.push_back({100000, 32, 2000, 30});
  }
  for (const Shape& shape : shapes) {
    bench::BenchScale scale;
    scale.machines = shape.machines;
    scale.shards = shape.shards;
    scale.concurrent_jobs = shape.jobs;
    scale.duration = shape.duration;
    scales.push_back(scale);
  }
  return scales;
}

std::vector<bench::BenchScale> SmokeScales() {
  bench::BenchScale scale;
  scale.machines = 500;
  scale.concurrent_jobs = 450;
  scale.duration = 60;
  return {scale};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fuxi;
  SetLogLevel(LogLevel::kError);

  const char* mode = "single";
  bool sharded = false;
  std::string json_path = "BENCH_fig9.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ladder") == 0) {
      mode = "ladder";
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      mode = "smoke";
    } else if (std::strcmp(argv[i], "--sharded") == 0) {
      sharded = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--ladder [--sharded]|--smoke] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<bench::BenchScale> scales;
  bool print_series = false;
  if (std::strcmp(mode, "ladder") == 0) {
    scales = sharded ? ShardedLadderScales() : LadderScales();
    if (sharded) mode = "ladder-sharded";
  } else if (std::strcmp(mode, "smoke") == 0) {
    scales = SmokeScales();
  } else {
    scales = {bench::BenchScale::FromEnv()};
    print_series = true;
  }

  std::printf("=== Figure 9: FuxiMaster scheduling time (%s) ===\n", mode);
  std::vector<PointResult> points;
  for (const bench::BenchScale& scale : scales) {
    points.push_back(RunPoint(scale, print_series));
  }
  std::printf(
      "paper: average 0.88 ms, peak < 3 ms on 5,000 machines / 1,000 "
      "jobs\n");

  std::ofstream out(json_path, std::ios::binary);
  out << ToJson(points, mode).Pretty() << "\n";
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("report written to %s\n", json_path.c_str());
  return 0;
}
