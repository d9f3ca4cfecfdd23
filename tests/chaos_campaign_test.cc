#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/campaign.h"
#include "chaos/fault_schedule.h"
#include "chaos/invariant_monitor.h"
#include "common/json.h"
#include "obs/audit.h"
#include "obs/telemetry.h"
#include "runtime/sim_cluster.h"
#include "runtime/synthetic_app.h"
#include "sweep/sweep_runner.h"

namespace fuxi::chaos {
namespace {

/// Seeds swept by the acceptance campaign. Every seed expands into a
/// different random fault schedule; all of them must hold every
/// invariant and finish their jobs once faults cease. The sweeps fan
/// out across the work-stealing runner (tests/sweep_test.cc proves the
/// fan-out is invisible to every digest); FUXI_SWEEP_JOBS pins the
/// worker count when debugging.
constexpr uint64_t kFirstSeed = 1;
constexpr int kSweepSeeds = 50;

int SweepJobs() { return ::fuxi::sweep::DefaultSweepJobs(); }

TEST(ChaosCampaign, FiftySeedSweepHoldsAllInvariants) {
  CampaignConfig config;
  SweepResult sweep =
      RunSeedSweep(kFirstSeed, kSweepSeeds, config, SweepJobs());
  EXPECT_EQ(sweep.passed, kSweepSeeds);
  if (sweep.failed > 0) {
    ADD_FAILURE() << FormatCampaignFailure(sweep.failures.front());
  }
}

TEST(ChaosCampaign, FiftySeedSweepHoldsAllInvariantsSerializeOnSend) {
  // The same sweep with every control-plane message round-tripping
  // through its wire codec at Send. Any codec that loses a field, any
  // non-canonical encoding, any decode divergence shows up here as an
  // invariant violation or a hung campaign.
  CampaignConfig config;
  config.cluster.network.serialize_on_send = true;
  SweepResult sweep =
      RunSeedSweep(kFirstSeed, kSweepSeeds, config, SweepJobs());
  EXPECT_EQ(sweep.passed, kSweepSeeds);
  if (sweep.failed > 0) {
    ADD_FAILURE() << FormatCampaignFailure(sweep.failures.front());
  }
}

TEST(ChaosCampaign, SerializeOnSendIsInvisibleToTheSimulation) {
  // Differential guard for the wire layer: with zero byte-fault
  // probabilities, serialize-on-send must be a pure identity — the
  // fault schedule, digest trace, folded state hash, event count and
  // completion time all match the in-memory-delivery run exactly.
  CampaignConfig off_config;
  CampaignConfig on_config;
  on_config.cluster.network.serialize_on_send = true;
  CampaignResult off = RunCampaign(7, off_config);
  CampaignResult on = RunCampaign(7, on_config);
  EXPECT_EQ(off.fault_log, on.fault_log);
  EXPECT_EQ(off.trace, on.trace);
  EXPECT_EQ(off.state_hash, on.state_hash);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.completed_at, on.completed_at);
  EXPECT_TRUE(on.ok()) << FormatCampaignFailure(on);
}

TEST(ChaosCampaign, ReplayFromSeedIsByteIdentical) {
  // The two replays run CONCURRENTLY on the sweep runner: same-seed
  // determinism must survive a sibling campaign executing next to it.
  CampaignConfig config;
  std::vector<CampaignResult> replays(2);
  ::fuxi::sweep::SweepRunner runner({2});
  runner.Run(2, [&replays, &config](size_t i) {
    replays[i] = RunCampaign(7, config);
  });
  const CampaignResult& first = replays[0];
  const CampaignResult& second = replays[1];
  // Byte-identical replay: the fault schedule, the periodic digest
  // trace, the folded state hash and the event count all match.
  EXPECT_EQ(first.fault_log, second.fault_log);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.state_hash, second.state_hash);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.completed_at, second.completed_at);
  EXPECT_EQ(first.violations.size(), second.violations.size());
  EXPECT_EQ(first.replay_digest, second.replay_digest);
}

TEST(ChaosCampaign, DistinctSeedsProduceDistinctSchedules) {
  CampaignConfig config;
  config.plan.duration = 20.0;  // shorter window keeps this test quick
  CampaignResult a = RunCampaign(101, config);
  CampaignResult b = RunCampaign(102, config);
  EXPECT_NE(a.fault_log, b.fault_log);
  EXPECT_NE(a.state_hash, b.state_hash);
}

// ---------------------------------------------------------------------
// Federated (sharded) campaigns: the acceptance sweep for fuxi::shard.
// Shard crash-loops, directory-replica outages and the mid-window
// spillover wave all draw from the same seeded schedule; every seed
// must hold the per-shard AND global invariants and finish every app —
// including the two submitted through the router while shards burned.
// ---------------------------------------------------------------------

TEST(ShardedChaosCampaign, FiftySeedSweepHoldsAllInvariants) {
  CampaignConfig config = ShardedCampaignConfig(4);
  SweepResult sweep =
      RunSeedSweep(kFirstSeed, kSweepSeeds, config, SweepJobs());
  EXPECT_EQ(sweep.passed, kSweepSeeds);
  if (sweep.failed > 0) {
    ADD_FAILURE() << FormatCampaignFailure(sweep.failures.front());
  }
}

TEST(ShardedChaosCampaign, FiftySeedSweepHoldsSerializeOnSend) {
  // Same sweep with every message — including the five shard.* types —
  // round-tripping through its wire codec at Send.
  CampaignConfig config = ShardedCampaignConfig(4);
  config.cluster.network.serialize_on_send = true;
  SweepResult sweep =
      RunSeedSweep(kFirstSeed, kSweepSeeds, config, SweepJobs());
  EXPECT_EQ(sweep.passed, kSweepSeeds);
  if (sweep.failed > 0) {
    ADD_FAILURE() << FormatCampaignFailure(sweep.failures.front());
  }
}

TEST(ShardedChaosCampaign, ReplayFromSeedIsByteIdentical) {
  CampaignConfig config = ShardedCampaignConfig(4);
  CampaignResult first = RunCampaign(7, config);
  CampaignResult second = RunCampaign(7, config);
  EXPECT_EQ(first.fault_log, second.fault_log);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.state_hash, second.state_hash);
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.completed_at, second.completed_at);
  EXPECT_TRUE(first.ok()) << FormatCampaignFailure(first);
  // The spillover wave is part of the workload: all six apps (four
  // first-wave + two mid-window) must account for every instance.
  EXPECT_EQ(first.instances_done,
            (config.apps + config.spillover_apps) * config.instances_per_app);
}

/// Harness for scripted (non-random) chaos scenarios: a tiny cluster
/// whose machines a single app fills completely, so a failover that
/// skips the Figure 7 grant restore must double-book them.
class ScriptedChaosTest : public ::testing::Test {
 protected:
  runtime::SimClusterOptions TinyClusterOptions(bool restore_grants) {
    runtime::SimClusterOptions options;
    options.topology.racks = 1;
    options.topology.machines_per_rack = 2;
    options.topology.machine_capacity = cluster::ResourceVector(400, 8192);
    options.master.failover_restore_grants = restore_grants;
    // Disable the periodic agent/master capacity reconcile: it would
    // repair the seeded double-grant before the sustained window
    // elapses, which is exactly what production wants and exactly what
    // this test must prevent.
    options.agent.allocation_report_every = 0;
    return options;
  }

  /// One app whose 8 long-running workers fill both machines
  /// (memory-bound: 4 x 2048 MB per 8192 MB machine).
  std::unique_ptr<runtime::SyntheticApp> SubmitFillingApp(
      runtime::SimCluster* cluster) {
    runtime::SyntheticStage stage;
    stage.slot_id = 0;
    stage.workers = 8;
    stage.instances = 8;
    stage.instance_duration = 120.0;  // busy for the whole test
    auto app = std::make_unique<runtime::SyntheticApp>(
        cluster, AppId(1), std::vector<runtime::SyntheticStage>{stage}, 7);
    master::SubmitAppRpc submit;
    submit.app = AppId(1);
    submit.client = cluster->AllocateNodeId();
    cluster->network().Send(submit.client, cluster->primary()->node(),
                            submit);
    cluster->RunFor(0.2);
    app->StartMaster();
    return app;
  }
};

TEST_F(ScriptedChaosTest, MonitorCatchesDoubleGrantWhenRestoreIsSkipped) {
  runtime::SimCluster cluster(TinyClusterOptions(/*restore_grants=*/false));
  InvariantMonitor monitor(&cluster);
  ChaosEngine engine(&cluster);
  cluster.Start();
  monitor.Start();
  cluster.RunFor(2.0);
  auto app = SubmitFillingApp(&cluster);
  cluster.RunFor(15.0);  // all 8 workers granted and running

  engine.Inject(engine.KillPrimaryMaster());
  // Standby takes over after the lease lapses, opens the machines
  // WITHOUT restoring their grants, and re-grants the app's full
  // resync demand onto machines still running the old workers. The
  // agents' capacity tables then promise 2x physical capacity, which
  // the monitor must flag once sustained.
  cluster.RunFor(30.0);

  // Pinned in full: the monitor builds this text only when a condition
  // fires, and it must read exactly as the always-formatting monitor's.
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"agent-overcommit:m0",
       "agent on machine 0 holds capacity cpu=400 memory=16384 above "
       "physical cpu=400 memory=8192 (sustained since t=27.000000)"},
      {"agent-overcommit:m1",
       "agent on machine 1 holds capacity cpu=400 memory=16384 above "
       "physical cpu=400 memory=8192 (sustained since t=27.000000)"},
  };
  ASSERT_EQ(monitor.violations().size(), expected.size()) << monitor.Summary();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(monitor.violations()[i].invariant, expected[i].first);
    EXPECT_EQ(monitor.violations()[i].detail, expected[i].second);
  }
}

TEST_F(ScriptedChaosTest, NoViolationWhenFailoverRestoresGrants) {
  runtime::SimCluster cluster(TinyClusterOptions(/*restore_grants=*/true));
  InvariantMonitor monitor(&cluster);
  ChaosEngine engine(&cluster);
  cluster.Start();
  monitor.Start();
  cluster.RunFor(2.0);
  auto app = SubmitFillingApp(&cluster);
  cluster.RunFor(15.0);

  engine.Inject(engine.KillPrimaryMaster());
  cluster.RunFor(30.0);

  EXPECT_TRUE(monitor.violations().empty()) << monitor.Summary();
}

TEST_F(ScriptedChaosTest, AsymmetricUplinkCutRevokesAndRecovers) {
  runtime::SimCluster cluster(TinyClusterOptions(/*restore_grants=*/true));
  InvariantMonitor monitor(&cluster);
  ChaosEngine engine(&cluster);
  cluster.Start();
  monitor.Start();
  cluster.RunFor(2.0);
  auto app = SubmitFillingApp(&cluster);
  cluster.RunFor(15.0);

  // Cut only agent->master: the master goes deaf and marks the machine
  // down; the machine still hears the resulting revocations.
  MachineId machine(0);
  engine.Inject(engine.CutAgentUplink(machine));
  cluster.RunFor(10.0);
  EXPECT_FALSE(
      cluster.primary()->scheduler()->machine_state(machine).online);

  engine.Inject(engine.HealAgentUplink(machine));
  cluster.RunFor(10.0);
  EXPECT_TRUE(
      cluster.primary()->scheduler()->machine_state(machine).online);
  EXPECT_TRUE(monitor.violations().empty()) << monitor.Summary();
}

TEST_F(ScriptedChaosTest, ByteFaultBurstsSurfaceAsDropsNeverViolations) {
  runtime::SimClusterOptions options =
      TinyClusterOptions(/*restore_grants=*/true);
  // Byte-level faults need real bytes to damage.
  options.network.serialize_on_send = true;
  runtime::SimCluster cluster(options);
  InvariantMonitor monitor(&cluster);
  ChaosEngine engine(&cluster);
  cluster.Start();
  monitor.Start();
  cluster.RunFor(2.0);
  auto app = SubmitFillingApp(&cluster);
  cluster.RunFor(15.0);

  // Heavy frame damage for 10 virtual seconds: a third of all frames get
  // a byte flipped, another chunk are truncated. Every damaged frame
  // must fail its checksum and be counted as a drop — the delta
  // channels' resync machinery then repairs the gaps, so once the burst
  // ends the cluster settles with no invariant violations.
  engine.Inject(engine.CorruptionBurst(0.3, 10.0));
  engine.Inject(engine.TruncationBurst(0.2, 10.0));
  cluster.RunFor(12.0);
  EXPECT_GT(cluster.network().stats().decode_drops, 0u);

  cluster.RunFor(30.0);  // burst over: heartbeats + resyncs reconverge
  EXPECT_TRUE(monitor.violations().empty()) << monitor.Summary();
}

/// The seeded Figure 7 regression, configured like
/// `bench_chaos_campaign --seed 8 --seed-restore-bug`.
CampaignResult RunSeededRestoreBug() {
  CampaignConfig config;
  config.seed_restore_bug = true;
  config.cluster.agent.allocation_report_every = 0;
  config.dump_audit = true;
  return RunCampaign(8, config);
}

Json ParseOrDie(const std::string& text) {
  Result<Json> parsed = Json::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  return parsed.ok() ? parsed.value() : Json();
}

/// The telemetry section without its realtime-tagged (wall-clock)
/// series: the part two replays of a seed must agree on byte for byte.
std::string DeterministicTelemetry(const Json& telemetry) {
  Json doc = telemetry;
  Json kept = Json::MakeArray();
  for (const Json& entry : doc.Find("series")->as_array()) {
    if (!entry.GetBool("realtime", false)) kept.Append(entry);
  }
  doc["series"] = std::move(kept);
  return doc.Dump();
}

TEST(IncidentBundle, EverySectionDecodesToTheArtifactItCameFrom) {
  CampaignResult result = RunSeededRestoreBug();
  ASSERT_FALSE(result.ok()) << "restore bug went undetected";
  Json bundle = IncidentJson(result);
  for (const char* section : {"traceEvents", "displayTimeUnit",
                              "auditRecords", "telemetry", "metrics"}) {
    EXPECT_NE(bundle.Find(section), nullptr) << "missing " << section;
  }

  // Audit: the same records, field for field (the export covers every
  // field of a DecisionRecord).
  std::vector<obs::DecisionRecord> records =
      obs::AuditRecordsFromJson(bundle);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(obs::ExportAuditJson(records),
            obs::ExportAuditJson(obs::AuditRecordsFromJson(
                ParseOrDie(result.audit_json))));

  // Telemetry: the same decoded series and watchdog events.
  obs::TelemetryDump from_bundle =
      obs::TelemetryDumpFromJson(*bundle.Find("telemetry"));
  obs::TelemetryDump from_result =
      obs::TelemetryDumpFromJson(ParseOrDie(result.telemetry_json));
  ASSERT_FALSE(from_bundle.series.empty());
  EXPECT_EQ(from_bundle.samples, from_result.samples);
  EXPECT_EQ(from_bundle.interval, from_result.interval);
  ASSERT_EQ(from_bundle.series.size(), from_result.series.size());
  for (size_t i = 0; i < from_bundle.series.size(); ++i) {
    const obs::TelemetryDump::Series& a = from_bundle.series[i];
    const obs::TelemetryDump::Series& b = from_result.series[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.realtime, b.realtime);
    EXPECT_EQ(a.first_tick, b.first_tick);
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.values, b.values) << a.name;
  }
  ASSERT_EQ(from_bundle.events.size(), from_result.events.size());
  ASSERT_FALSE(from_bundle.events.empty());
  for (size_t i = 0; i < from_bundle.events.size(); ++i) {
    const obs::HealthEvent& a = from_bundle.events[i];
    const obs::HealthEvent& b = from_result.events[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.rule, b.rule);
    EXPECT_EQ(a.series, b.series);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.threshold, b.threshold);
    EXPECT_EQ(a.detail, b.detail);
  }

  // Trace: one event per span the failure report counts.
  std::string report = FormatCampaignFailure(result);
  size_t at = report.find("chrome_trace: ");
  ASSERT_NE(at, std::string::npos) << report;
  size_t reported = std::strtoull(report.c_str() + at + 14, nullptr, 10);
  EXPECT_GT(reported, 0u);
  EXPECT_EQ(bundle.Find("traceEvents")->as_array().size(), reported);

  // Metrics: the CSV text verbatim.
  EXPECT_EQ(bundle.Find("metrics")->as_string(), result.metrics_csv);
}

TEST(IncidentBundle, DeterministicSectionsReplayByteIdentical) {
  Json first = IncidentJson(RunSeededRestoreBug());
  Json second = IncidentJson(RunSeededRestoreBug());
  for (const Json* bundle : {&first, &second}) {
    ASSERT_NE(bundle->Find("auditRecords"), nullptr);
    ASSERT_NE(bundle->Find("telemetry"), nullptr);
  }
  EXPECT_EQ(first.Find("auditRecords")->Dump(),
            second.Find("auditRecords")->Dump());
  EXPECT_EQ(DeterministicTelemetry(*first.Find("telemetry")),
            DeterministicTelemetry(*second.Find("telemetry")));
}

}  // namespace
}  // namespace fuxi::chaos
