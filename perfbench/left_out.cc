// Shapes deliberately left out of the benchmark because they fail or do
// not fit its time budget, kept runnable so each defect reproduces from
// one command (see README.md, "Left out"):
//
//   fuxi_perfbench_left_out sharded-closed-loop
//       5,000 machines over 2 shard masters, 300 closed-loop jobs;
//       aborts in the synthetic application model.
//   fuxi_perfbench_left_out composed-4x8 [SEED]
//       one campaign on 4x8 machines with 8 apps, 2 planner apps, 6
//       tenants and serialize-on-send; seed 14 (the default) fails
//       orphan-processes.

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.h"
#include "chaos/campaign.h"

namespace {

using namespace fuxi;

int ShardedClosedLoop() {
  bench::BenchScale scale;
  scale.machines = 5000;
  scale.shards = 2;
  scale.concurrent_jobs = 300;
  runtime::SimCluster cluster(
      bench::BenchClusterOptions(scale.machines, scale.shards));
  cluster.Start();
  cluster.RunFor(2.0);
  bench::WorkloadDriver closed_loop(&cluster, scale, 42);
  closed_loop.Start();
  for (int window = 1; window <= 24; ++window) {
    cluster.RunFor(10.0);
    std::printf("t=%.0f jobs_completed=%lld\n", cluster.sim().Now(),
                static_cast<long long>(closed_loop.jobs_completed()));
  }
  return 0;
}

int Composed4x8(uint64_t seed) {
  chaos::CampaignConfig config;
  config.cluster.topology.racks = 4;
  config.cluster.topology.machines_per_rack = 8;
  config.apps = 8;
  config.planner_apps = 2;
  config.tenants = 6;
  config.cluster.network.serialize_on_send = true;
  chaos::CampaignResult result = chaos::RunCampaign(seed, config);
  std::printf("seed=%llu %s events=%llu\n",
              static_cast<unsigned long long>(seed),
              result.ok() ? "PASS" : "FAIL",
              static_cast<unsigned long long>(result.events));
  for (const chaos::Violation& v : result.violations) {
    std::printf("t=%.1f [%s] %s\n", v.time, v.invariant.c_str(),
                v.detail.c_str());
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  if (argc >= 2 && std::strcmp(argv[1], "sharded-closed-loop") == 0) {
    return ShardedClosedLoop();
  }
  if (argc >= 2 && std::strcmp(argv[1], "composed-4x8") == 0) {
    return Composed4x8(argc >= 3 ? std::strtoull(argv[2], nullptr, 10) : 14);
  }
  std::fprintf(stderr,
               "usage: %s sharded-closed-loop | composed-4x8 [SEED]\n",
               argv[0]);
  return 2;
}
