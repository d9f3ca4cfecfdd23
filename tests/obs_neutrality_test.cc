// Observability neutrality: every observability layer turns off at
// runtime, and turning it off must not change a single decision.
//
//  * Telemetry: the same seeds of the unsharded, federated and planner
//    campaign shapes, run with the sampler disabled and with the
//    default configuration, must produce identical replay digests and
//    monitor state hashes.
//  * Tracing: a SimCluster workload driven with the network's tracer
//    detached must leave the metrics snapshot and the primary's grant
//    log byte-identical to the traced run.
//
// Audit neutrality is pinned by the differential suite, which runs an
// audited scheduler against a bare one on every seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "master/messages.h"
#include "obs/exporters.h"
#include "runtime/sim_cluster.h"
#include "runtime/synthetic_app.h"
#include "sweep/sweep_runner.h"

namespace fuxi {
namespace {

constexpr int kSeeds = 20;
constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;

struct CampaignFingerprint {
  uint64_t replay_digest = 0;
  uint64_t state_hash = 0;
  bool sampled = false;  ///< the campaign exported a telemetry dump
};

/// Runs seeds 1..kSeeds of `config` on a 4-worker sweep pool.
std::vector<CampaignFingerprint> Fingerprints(
    const chaos::CampaignConfig& config) {
  std::vector<CampaignFingerprint> out(kSeeds);
  sweep::SweepRunner runner({4});
  runner.Run(kSeeds, [&out, &config](size_t i) {
    chaos::CampaignResult result =
        chaos::RunCampaign(1 + static_cast<uint64_t>(i), config);
    out[i] = CampaignFingerprint{result.replay_digest, result.state_hash,
                                 !result.telemetry_json.empty()};
  });
  return out;
}

void ExpectTelemetryNeutral(chaos::CampaignConfig config, const char* label) {
  std::vector<CampaignFingerprint> sampled = Fingerprints(config);
  config.cluster.obs.telemetry.enabled = false;
  std::vector<CampaignFingerprint> detached = Fingerprints(config);
  for (int i = 0; i < kSeeds; ++i) {
    const CampaignFingerprint& on = sampled[static_cast<size_t>(i)];
    const CampaignFingerprint& off = detached[static_cast<size_t>(i)];
    ASSERT_TRUE(on.sampled) << label << ": seed " << (1 + i);
    ASSERT_FALSE(off.sampled) << label << ": seed " << (1 + i);
    EXPECT_EQ(on.replay_digest, off.replay_digest)
        << label << ": telemetry changed the replay of seed " << (1 + i);
    EXPECT_EQ(on.state_hash, off.state_hash)
        << label << ": telemetry changed the state hash of seed " << (1 + i);
  }
}

TEST(ObsNeutrality, TelemetryDetachKeepsUnshardedDigests) {
  ExpectTelemetryNeutral(chaos::CampaignConfig(), "unsharded");
}

TEST(ObsNeutrality, TelemetryDetachKeepsShardedDigests) {
  ExpectTelemetryNeutral(chaos::ShardedCampaignConfig(4), "sharded");
}

TEST(ObsNeutrality, TelemetryDetachKeepsPlannerDigests) {
  chaos::CampaignConfig config;
  config.planner_apps = 1;
  config.plan.planner_faults = true;
  ExpectTelemetryNeutral(config, "planner");
}

struct WorkloadOutcome {
  std::string metrics_csv;
  uint64_t grant_digest = 0;
  uint64_t spans = 0;
};

/// Drives a seed-keyed synthetic app on a small cluster and folds the
/// primary's grant table into an FNV-1a digest every virtual second.
WorkloadOutcome RunWorkload(uint64_t seed, bool traced) {
  runtime::SimClusterOptions options;
  options.seed = seed;
  options.topology.racks = 2;
  options.topology.machines_per_rack = 2;
  runtime::SimCluster cluster(options);
  if (!traced) {
    cluster.network().SetObservability(nullptr, &cluster.obs().metrics);
  }
  cluster.Start();
  cluster.RunFor(2.0);

  master::SubmitAppRpc submit;
  submit.app = AppId(1);
  submit.client = cluster.AllocateNodeId();
  cluster.network().Send(submit.client, cluster.primary()->node(), submit);
  cluster.RunFor(0.1);
  runtime::SyntheticStage stage;
  stage.workers = 3;
  stage.instances = 9;
  runtime::SyntheticApp app(&cluster, AppId(1), {stage}, seed);
  app.MarkSubmitted(cluster.sim().Now());
  app.StartMaster();

  WorkloadOutcome outcome;
  outcome.grant_digest = kFnvOffsetBasis;
  for (int second = 0; second < 30; ++second) {
    cluster.RunFor(1.0);
    std::ostringstream grants;
    for (const auto& grant :
         cluster.primary()->scheduler()->GrantsOf(AppId(1))) {
      grants << grant.slot_id << ' ' << grant.machine.value() << ' '
             << grant.count << '\n';
    }
    for (char c : grants.str()) {
      outcome.grant_digest ^= static_cast<unsigned char>(c);
      outcome.grant_digest *= 1099511628211ull;
    }
  }
  outcome.metrics_csv =
      obs::StripRealtimeRows(obs::MetricsToCsv(cluster.obs().metrics));
  outcome.spans = cluster.obs().trace.spans_begun();
  return outcome;
}

TEST(ObsNeutrality, TracerDetachKeepsMetricsAndGrantLog) {
  for (uint64_t seed : {11u, 22u}) {
    WorkloadOutcome traced = RunWorkload(seed, true);
    WorkloadOutcome detached = RunWorkload(seed, false);
    ASSERT_FALSE(traced.metrics_csv.empty());
    ASSERT_NE(traced.grant_digest, kFnvOffsetBasis) << "nothing was granted";
    // The detached run traced no message spans at all.
    EXPECT_GT(traced.spans, detached.spans) << "seed " << seed;
    EXPECT_EQ(traced.metrics_csv, detached.metrics_csv) << "seed " << seed;
    EXPECT_EQ(traced.grant_digest, detached.grant_digest) << "seed " << seed;
  }
}

}  // namespace
}  // namespace fuxi
