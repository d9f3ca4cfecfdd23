// fuxi::obs::telemetry correctness battery.
//
// Four layers under test, mirroring the subsystem's guarantees:
//  * TelemetrySeries delta-ring mechanics — wrap retention, exact
//    reconstruction, mid-run series birth;
//  * the SLO watchdog's three rule shapes (threshold / rate /
//    sustained) against hand-fed series, including cooldown and
//    breach-interruption edges;
//  * the round trip TelemetryJson -> TelemetryDumpFromJson;
//  * campaign integration: 20 seeds sampled under --jobs 1 and
//    --jobs 4 must dump byte-identical telemetry once realtime-tagged
//    series are dropped, and the seeded restore-bug campaign must raise
//    a watchdog HealthEvent strictly before its first invariant
//    violation — the "pre-violation warning" contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "common/json.h"
#include "obs/metrics_registry.h"
#include "obs/telemetry.h"
#include "sweep/sweep_runner.h"

namespace fuxi {
namespace {

using obs::SloRule;
using obs::SloRuleKind;
using obs::TelemetrySeries;

// ----------------------------------------------------- series mechanics

TEST(TelemetrySeries, AppendsAndReconstructsExactly) {
  TelemetrySeries series(TelemetrySeries::Kind::kGauge, 8, false);
  std::vector<double> fed = {0, 1.5, 1.5, -2.25, 100, 0.000001};
  for (size_t i = 0; i < fed.size(); ++i) {
    series.Append(static_cast<int64_t>(i), fed[i]);
  }
  EXPECT_EQ(series.size(), fed.size());
  EXPECT_EQ(series.first_tick(), 0);
  EXPECT_EQ(series.last_tick(), 5);
  EXPECT_EQ(series.Values(), fed);
  EXPECT_DOUBLE_EQ(series.Latest(), 0.000001);
  double at = 0;
  ASSERT_TRUE(series.ValueAt(3, &at));
  EXPECT_DOUBLE_EQ(at, -2.25);
  EXPECT_FALSE(series.ValueAt(6, &at));
  EXPECT_FALSE(series.ValueAt(-1, &at));
}

TEST(TelemetrySeries, RingWrapRetainsNewestWindowExactly) {
  // Capacity 4, 10 appends: ticks 6..9 must survive, reconstructed to
  // the exact fed values even though their deltas chain through an
  // evicted base.
  TelemetrySeries series(TelemetrySeries::Kind::kCounter, 4, false);
  for (int64_t tick = 0; tick < 10; ++tick) {
    series.Append(tick, static_cast<double>(tick * tick));
  }
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.first_tick(), 6);
  EXPECT_EQ(series.last_tick(), 9);
  EXPECT_EQ(series.total_appended(), 10u);
  EXPECT_EQ(series.Values(), (std::vector<double>{36, 49, 64, 81}));
  double at = 0;
  EXPECT_FALSE(series.ValueAt(5, &at)) << "evicted tick must be gone";
  ASSERT_TRUE(series.ValueAt(6, &at));
  EXPECT_DOUBLE_EQ(at, 36);
}

TEST(TelemetrySeries, MidRunBirthStartsAtFirstSampledTick) {
  TelemetrySeries series(TelemetrySeries::Kind::kDerived, 16, false);
  series.Append(42, 7.0);
  series.Append(43, 8.0);
  EXPECT_EQ(series.first_tick(), 42);
  EXPECT_EQ(series.Values(), (std::vector<double>{7, 8}));
}

// ------------------------------------------------------------- sampler

/// Drives a sampler over a hand-mutated registry: each Step() advances
/// one virtual second and polls.
struct SamplerHarness {
  obs::MetricsRegistry metrics;
  obs::TelemetrySampler sampler{&metrics, {}};
  double now = 0;

  void Step(double dt = 1.0) {
    now += dt;
    sampler.Poll(now);
  }
};

TEST(TelemetrySampler, CapturesCountersGaugesAndRates) {
  SamplerHarness h;
  h.sampler.AddRate("work.items");
  obs::Counter* items = h.metrics.GetCounter("work.items");
  obs::Gauge* depth = h.metrics.GetGauge("queue.depth");

  h.sampler.Poll(0);  // tick 0: everything zero
  items->Add(10);
  depth->Set(3);
  h.Step();  // tick 1
  items->Add(30);
  depth->Set(5);
  h.Step();  // tick 2

  const TelemetrySeries* counter = h.sampler.series("work.items");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->Values(), (std::vector<double>{0, 10, 40}));
  const TelemetrySeries* gauge = h.sampler.series("queue.depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->Values(), (std::vector<double>{0, 3, 5}));
  // Rate series: first sample is defined as 0 (no predecessor), then
  // the per-second counter delta.
  const TelemetrySeries* rate = h.sampler.series("work.items.rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->Values(), (std::vector<double>{0, 10, 30}));
}

TEST(TelemetrySampler, PollCatchesUpMissedTicksInOrder) {
  SamplerHarness h;
  obs::Gauge* g = h.metrics.GetGauge("g");
  g->Set(4);
  // One poll far in the future samples every elapsed tick with the
  // state visible at poll time — exactly what a sparse event sequence
  // produces in the simulator.
  h.sampler.Poll(3.0);
  EXPECT_EQ(h.sampler.samples_taken(), 4);  // ticks 0..3
  const TelemetrySeries* series = h.sampler.series("g");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->Values(), (std::vector<double>{4, 4, 4, 4}));
}

TEST(TelemetrySampler, ProbesBecomeDerivedSeries) {
  SamplerHarness h;
  double level = 1;
  h.sampler.AddProbe("derived.level", [&level] { return level; });
  h.sampler.Poll(0);
  level = 9;
  h.Step();
  const TelemetrySeries* series = h.sampler.series("derived.level");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->kind(), TelemetrySeries::Kind::kDerived);
  EXPECT_EQ(series->Values(), (std::vector<double>{1, 9}));
}

// ------------------------------------------------------------ watchdog

/// Sampler + watchdog pair whose series are fed through a probe the
/// test mutates between steps — the minimal harness for rule edges.
struct WatchdogHarness {
  obs::MetricsRegistry metrics;
  obs::TelemetrySampler sampler{&metrics, {}};
  obs::SloWatchdog watchdog{nullptr, nullptr, 512};
  double level = 0;
  double now = -1;

  WatchdogHarness() {
    sampler.AddProbe("probe", [this] { return level; });
  }

  /// Advances one second, samples, evaluates.
  void Step(double value) {
    level = value;
    now += 1.0;
    sampler.Poll(now);
    watchdog.Evaluate(sampler, now);
  }

  size_t fired() const { return watchdog.events().size(); }
};

TEST(SloWatchdog, ThresholdFiresOnCrossAndHonorsCooldown) {
  WatchdogHarness h;
  SloRule rule;
  rule.name = "spike";
  rule.series = "probe";
  rule.kind = SloRuleKind::kThreshold;
  rule.threshold = 10;
  rule.cooldown = 3;
  h.watchdog.AddRule(rule);

  h.Step(9);  // below
  EXPECT_EQ(h.fired(), 0u);
  h.Step(10);  // at threshold: >= fires
  ASSERT_EQ(h.fired(), 1u);
  EXPECT_EQ(h.watchdog.events()[0].rule, "spike");
  EXPECT_DOUBLE_EQ(h.watchdog.events()[0].value, 10);
  h.Step(50);  // still breaching but inside cooldown
  h.Step(50);
  EXPECT_EQ(h.fired(), 1u) << "cooldown must suppress refiring";
  h.Step(50);  // cooldown elapsed
  EXPECT_EQ(h.fired(), 2u);
}

TEST(SloWatchdog, ThresholdBelowDirectionFires) {
  WatchdogHarness h;
  SloRule rule;
  rule.name = "floor";
  rule.series = "probe";
  rule.kind = SloRuleKind::kThreshold;
  rule.threshold = 2;
  rule.above = false;  // breach when value <= threshold
  h.watchdog.AddRule(rule);
  h.Step(5);
  EXPECT_EQ(h.fired(), 0u);
  h.Step(2);
  EXPECT_EQ(h.fired(), 1u);
}

TEST(SloWatchdog, RateFiresOnFastGrowthOnly) {
  WatchdogHarness h;
  SloRule rule;
  rule.name = "growth";
  rule.series = "probe";
  rule.kind = SloRuleKind::kRate;
  rule.threshold = 5;  // units per second
  rule.window = 2;
  rule.cooldown = 100;
  h.watchdog.AddRule(rule);

  h.Step(0);
  h.Step(2);
  h.Step(4);  // +4 over 2s = 2/s: calm
  EXPECT_EQ(h.fired(), 0u);
  h.Step(20);
  h.Step(40);  // +36 over 2s = 18/s: spike
  ASSERT_EQ(h.fired(), 1u);
  EXPECT_EQ(h.watchdog.events()[0].rule, "growth");
  EXPECT_GE(h.watchdog.events()[0].value, 5);
}

TEST(SloWatchdog, RateNeedsFullLookbackWindow) {
  WatchdogHarness h;
  SloRule rule;
  rule.name = "growth";
  rule.series = "probe";
  rule.kind = SloRuleKind::kRate;
  rule.threshold = 1;
  rule.window = 5;
  h.watchdog.AddRule(rule);
  // Only 3 samples exist; a 5s lookback has no basis yet, so even a
  // huge jump must not fire.
  h.Step(0);
  h.Step(1000);
  h.Step(2000);
  EXPECT_EQ(h.fired(), 0u);
}

TEST(SloWatchdog, SustainedRequiresUninterruptedBreach) {
  WatchdogHarness h;
  SloRule rule;
  rule.name = "stuck";
  rule.series = "probe";
  rule.kind = SloRuleKind::kSustained;
  rule.threshold = 1;
  rule.window = 3;
  rule.cooldown = 100;
  h.watchdog.AddRule(rule);

  h.Step(1);
  h.Step(1);
  h.Step(0);  // breach interrupted: the clock must reset
  h.Step(1);
  h.Step(1);
  h.Step(1);  // 2s sustained so far (breach re-began at t=3)
  EXPECT_EQ(h.fired(), 0u);
  h.Step(1);  // 3s sustained
  ASSERT_EQ(h.fired(), 1u);
  EXPECT_EQ(h.watchdog.events()[0].rule, "stuck");
}

TEST(SloWatchdog, MissingSeriesNeverFires) {
  WatchdogHarness h;
  SloRule rule;
  rule.name = "ghost";
  rule.series = "no.such.series";
  rule.kind = SloRuleKind::kThreshold;
  rule.threshold = 0;
  h.watchdog.AddRule(rule);
  h.Step(100);
  h.Step(100);
  EXPECT_EQ(h.fired(), 0u);
}

TEST(SloWatchdog, EventRingBoundsAndCountsDrops) {
  obs::MetricsRegistry metrics;
  obs::TelemetrySampler sampler(&metrics, {});
  obs::SloWatchdog watchdog(nullptr, nullptr, /*max_events=*/2);
  double level = 100;
  sampler.AddProbe("probe", [&level] { return level; });
  SloRule rule;
  rule.name = "chatty";
  rule.series = "probe";
  rule.kind = SloRuleKind::kThreshold;
  rule.threshold = 1;
  rule.cooldown = 0;  // fire every tick
  watchdog.AddRule(rule);
  for (int t = 0; t < 5; ++t) {
    sampler.Poll(t);
    watchdog.Evaluate(sampler, t);
  }
  EXPECT_EQ(watchdog.events().size(), 2u);
  EXPECT_EQ(watchdog.events_dropped(), 3u);
}

// ---------------------------------------------------------- round trip

TEST(TelemetryExport, JsonRoundTripsSeriesAndEvents) {
  WatchdogHarness h;
  SloRule rule;
  rule.name = "spike";
  rule.series = "probe";
  rule.kind = SloRuleKind::kThreshold;
  rule.threshold = 5;
  h.watchdog.AddRule(rule);
  h.Step(1);
  h.Step(7);
  h.Step(3);
  ASSERT_EQ(h.fired(), 1u);

  std::string json = obs::ExportTelemetryJson(h.sampler, h.watchdog);
  ASSERT_FALSE(json.empty());
  Result<Json> parsed = Json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  obs::TelemetryDump dump = obs::TelemetryDumpFromJson(parsed.value());
  EXPECT_EQ(dump.samples, h.sampler.samples_taken());
  const obs::TelemetryDump::Series* probe = dump.Find("probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->values, (std::vector<double>{1, 7, 3}));
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].rule, "spike");
  EXPECT_DOUBLE_EQ(dump.events[0].value, 7);
}

// ------------------------------------------------ campaign integration

/// Strips realtime-tagged series from a telemetry JSON dump and returns
/// a canonical re-dump: the deterministic residue two runs must agree
/// on byte for byte.
std::string DeterministicTelemetry(const std::string& json) {
  Result<Json> parsed = Json::Parse(json);
  if (!parsed.ok()) return "<parse error: " + json.substr(0, 64) + ">";
  Json doc = parsed.value();
  Json* series = const_cast<Json*>(doc.Find("series"));
  if (series != nullptr && series->is_array()) {
    Json kept = Json::MakeArray();
    for (const Json& entry : series->as_array()) {
      if (!entry.GetBool("realtime", false)) kept.Append(entry);
    }
    *series = std::move(kept);
  }
  return doc.Dump();
}

TEST(TelemetryDeterminism, TwentySeedsDumpIdenticallyAcrossJobs) {
  // The tentpole determinism bar: per-seed telemetry dumps (sampled off
  // simulator ticks, exported as delta-encoded JSON) are byte-identical
  // between a serial sweep and a 4-worker sweep once realtime-tagged
  // series (wall-clock percentiles) are dropped. 20 seeds, same range
  // as the replay-digest battery in sweep_test.cc.
  constexpr int kSeeds = 20;
  chaos::CampaignConfig config;
  auto collect = [&config](int jobs) {
    std::vector<std::string> dumps(kSeeds);
    sweep::SweepRunner runner({jobs});
    runner.Run(kSeeds, [&dumps, &config](size_t i) {
      chaos::CampaignResult result =
          chaos::RunCampaign(1 + static_cast<uint64_t>(i), config);
      dumps[i] = DeterministicTelemetry(result.telemetry_json);
    });
    return dumps;
  };
  std::vector<std::string> serial = collect(1);
  std::vector<std::string> parallel = collect(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (int i = 0; i < kSeeds; ++i) {
    ASSERT_FALSE(serial[static_cast<size_t>(i)].empty());
    EXPECT_GT(serial[static_cast<size_t>(i)].size(), 100u)
        << "seed " << (1 + i) << " sampled nothing";
    EXPECT_EQ(serial[static_cast<size_t>(i)],
              parallel[static_cast<size_t>(i)])
        << "telemetry dump for seed " << (1 + i)
        << " changed under --jobs 4 — sampling is not virtual-time "
           "deterministic";
  }
}

TEST(TelemetryWatchdog, SeededBugRaisesHealthEventBeforeViolation) {
  // The watchdog's reason to exist: under the seeded Figure 7 restore
  // bug (seed 8 — pinned by the golden replay suite), the stray-process
  // rule must fire while the leaked workers are still only a
  // degradation signal, strictly before the invariant monitor's
  // primary-gated orphan grace converts them into a violation.
  chaos::CampaignConfig config;
  config.seed_restore_bug = true;
  config.cluster.agent.allocation_report_every = 0;
  chaos::CampaignResult result = chaos::RunCampaign(8, config);
  ASSERT_FALSE(result.violations.empty())
      << "the seeded bug must still trip the invariant monitor";
  ASSERT_FALSE(result.health_events.empty())
      << "the watchdog saw nothing before the violation";

  double first_event = result.health_events[0].time;
  for (const obs::HealthEvent& event : result.health_events) {
    first_event = std::min(first_event, event.time);
  }
  double first_violation = result.violations[0].time;
  for (const chaos::Violation& violation : result.violations) {
    first_violation = std::min(first_violation, violation.time);
  }
  EXPECT_LT(first_event, first_violation)
      << "health events must lead, not trail, the invariant violation";
  bool stray_rule_fired = false;
  for (const obs::HealthEvent& event : result.health_events) {
    if (event.rule == "stray-process-leak") stray_rule_fired = true;
  }
  EXPECT_TRUE(stray_rule_fired)
      << "expected the stray-process-leak rule specifically";
  // The dump carries the same events for `fuxi dash`.
  ASSERT_FALSE(result.telemetry_json.empty());
  EXPECT_NE(result.telemetry_json.find("stray-process-leak"),
            std::string::npos);
}

TEST(TelemetryCampaign, CleanSeedSamplesButStaysQuiet) {
  // Seed 3 passes (golden suite pin); its telemetry dump must be
  // non-trivial — series exist, the stray probe stayed flat at zero —
  // and the stray/overcommit rules must not have fired.
  chaos::CampaignConfig config;
  chaos::CampaignResult result = chaos::RunCampaign(3, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.telemetry_json.empty());
  Result<Json> parsed = Json::Parse(result.telemetry_json);
  ASSERT_TRUE(parsed.ok());
  obs::TelemetryDump dump = obs::TelemetryDumpFromJson(parsed.value());
  EXPECT_GT(dump.samples, 10);
  EXPECT_GT(dump.series.size(), 10u);
  // Transient strays are normal on a clean run (a finished app's
  // workers die a heartbeat later, and an injected master outage can
  // stall the kill) — the contract is that cleanup converges: the
  // series exists and ends at zero, and it never breached long enough
  // to fire the sustained rule (checked below via health_events).
  const obs::TelemetryDump::Series* strays =
      dump.Find("derived.cluster.stray_processes");
  ASSERT_NE(strays, nullptr);
  ASSERT_FALSE(strays->values.empty());
  EXPECT_EQ(strays->values.back(), 0) << "strays never cleaned up";
  for (const obs::HealthEvent& event : result.health_events) {
    EXPECT_NE(event.rule, "stray-process-leak");
    EXPECT_NE(event.rule, "agent-overcommit");
  }
}

}  // namespace
}  // namespace fuxi
