// The parallel campaign engine's own correctness harness.
//
// The contract under test: fanning seeds across worker threads changes
// WALL-CLOCK ONLY. For every seed, --jobs 1 and --jobs N must produce
// byte-identical replay digests, identical invariant outcomes and
// byte-identical metrics snapshots; any divergence means a campaign
// observed state it does not own (a process-global metric registry, a
// shared audit ring, a leaked RNG) and is a build-breaking bug, not a
// flake. The battery runs three cluster shapes — unsharded, federated,
// and the planner workload.
//
// Alongside the determinism battery: SweepRunner edge cases (zero
// seeds, more workers than seeds, failing seeds whose artifact dumps
// must stay per-seed), the concurrent-cluster isolation regressions for
// the per-cluster Observability bundle, and the pin on trace-counter
// scoping.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chaos/campaign.h"
#include "master/messages.h"
#include "obs/exporters.h"
#include "runtime/sim_cluster.h"
#include "runtime/synthetic_app.h"
#include "sweep/sweep_runner.h"

namespace fuxi {
namespace {

// Worker count for the parallel legs. Deliberately above the seed
// count's natural per-worker stripe and independent of the host's core
// count: oversubscription forces preemptive interleaving even on a
// single-core machine, which is exactly the stressor that flushes out
// shared state.
constexpr int kParallelJobs = 4;

chaos::CampaignConfig UnshardedConfig() { return chaos::CampaignConfig(); }

chaos::CampaignConfig ShardedConfig() {
  return chaos::ShardedCampaignConfig(2);
}

chaos::CampaignConfig PlannerConfig() {
  chaos::CampaignConfig config;
  config.planner_apps = 1;
  config.plan.planner_faults = true;
  return config;
}

// Wall-clock instruments (master.schedule_wall_us, sweep.steals, ...)
// differ between any two runs — serial or not. They carry realtime=1 in
// the registry, so the byte-for-byte comparisons below drop exactly the
// rows the producers tagged (obs::StripRealtimeRows) instead of
// maintaining a name blacklist here.

// ------------------------------------------------------ SweepRunner core

TEST(SweepRunnerTest, ZeroTasksReturnsImmediately) {
  sweep::SweepRunner runner({kParallelJobs});
  std::atomic<int> calls{0};
  runner.Run(0, [&calls](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(runner.stats().tasks, 0u);
  EXPECT_EQ(runner.stats().workers, 0);
}

TEST(SweepRunnerTest, MoreWorkersThanTasksRunsEachIndexExactlyOnce) {
  sweep::SweepRunner runner({8});
  std::vector<std::atomic<int>> hits(3);
  runner.Run(3, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // The pool never spawns more workers than there are tasks.
  EXPECT_LE(runner.stats().workers, 3);
}

TEST(SweepRunnerTest, UnevenTasksAllCoveredExactlyOnce) {
  // 64 tasks of wildly different cost across 4 workers: work stealing
  // (or at worst the round-robin stripe) must still execute every index
  // exactly once, with no index lost to a drained queue.
  sweep::SweepRunner runner({kParallelJobs});
  std::vector<std::atomic<int>> hits(64);
  runner.Run(64, [&hits](size_t i) {
    volatile uint64_t sink = 0;
    // Index-dependent busy work: worker 0's stripe is ~64x the cost of
    // worker 3's, so its queue is the steal target.
    for (uint64_t k = 0; k < (64 - i) * 20000; ++k) sink = sink + k;
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(runner.stats().tasks, 64u);
  EXPECT_EQ(runner.stats().workers, kParallelJobs);
}

TEST(SweepRunnerTest, JobsOneRunsInlineWithoutThreads) {
  sweep::SweepRunner runner({1});
  std::vector<int> order;  // unsynchronized on purpose: must be safe
  runner.Run(5, [&order](size_t i) { order.push_back(static_cast<int>(i)); });
  ASSERT_EQ(order.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  EXPECT_EQ(runner.stats().workers, 0) << "no threads in serial mode";
}

TEST(SweepRunnerTest, ExceptionPropagatesToCaller) {
  sweep::SweepRunner runner({kParallelJobs});
  EXPECT_THROW(
      runner.Run(16,
                 [](size_t i) {
                   if (i == 5) throw std::runtime_error("seed blew up");
                 }),
      std::runtime_error);
}

TEST(SweepRunnerTest, ParseJobsGrammar) {
  EXPECT_EQ(sweep::ParseJobs("max"), 0);
  EXPECT_EQ(sweep::ParseJobs("0"), 0);
  EXPECT_EQ(sweep::ParseJobs("1"), 1);
  EXPECT_EQ(sweep::ParseJobs("12"), 12);
  EXPECT_EQ(sweep::ParseJobs("-3"), 1);
  EXPECT_GE(sweep::DefaultSweepJobs(), 2);
}

TEST(SweepRunnerTest, ExportStatsPublishesAccountingWithRealtimeTags) {
  sweep::SweepRunner runner({kParallelJobs});
  runner.Run(12, [](size_t) {});
  obs::MetricsRegistry registry;
  sweep::ExportStats(runner.stats(), &registry);
  EXPECT_EQ(registry.GetCounter("sweep.tasks")->value(), 12u);
  EXPECT_EQ(registry.GetGauge("sweep.workers")->value(), kParallelJobs);
  // Task count is deterministic; everything scheduling-dependent or
  // wall-clock is tagged realtime so CI diffs drop it.
  EXPECT_FALSE(registry.is_realtime("sweep.tasks"));
  EXPECT_TRUE(registry.is_realtime("sweep.steals"));
  EXPECT_TRUE(registry.is_realtime("sweep.workers"));
  EXPECT_TRUE(registry.is_realtime("sweep.wall_seconds"));
  std::string csv = obs::MetricsToCsv(registry);
  EXPECT_NE(csv.find("sweep.tasks"), std::string::npos);
  std::string stripped = obs::StripRealtimeRows(csv);
  EXPECT_NE(stripped.find("sweep.tasks"), std::string::npos);
  EXPECT_EQ(stripped.find("sweep.steals"), std::string::npos);
  EXPECT_EQ(stripped.find("sweep.wall_seconds"), std::string::npos);
}

// ------------------------------------------------- determinism battery

/// Runs `seeds` campaigns serially and in parallel and asserts the two
/// sweeps are indistinguishable: same pass/fail split, same failing
/// seeds, byte-identical per-seed replay digests, and (re-running the
/// divergence-free seeds individually) byte-identical metrics CSVs.
void AssertSweepDeterministic(const chaos::CampaignConfig& config,
                              int seeds, const char* label) {
  chaos::SweepResult serial = chaos::RunSeedSweep(1, seeds, config, 1);
  chaos::SweepResult parallel =
      chaos::RunSeedSweep(1, seeds, config, kParallelJobs);

  EXPECT_EQ(serial.passed, parallel.passed) << label;
  EXPECT_EQ(serial.failed, parallel.failed) << label;
  EXPECT_EQ(serial.failing_seeds, parallel.failing_seeds) << label;
  ASSERT_EQ(serial.digests.size(), parallel.digests.size()) << label;
  for (size_t i = 0; i < serial.digests.size(); ++i) {
    EXPECT_EQ(serial.digests[i], parallel.digests[i])
        << label << ": replay digest diverged at seed " << (1 + i)
        << " — a campaign observed state it does not own";
  }
  ASSERT_EQ(serial.failures.size(), parallel.failures.size()) << label;
  for (size_t i = 0; i < serial.failures.size(); ++i) {
    EXPECT_EQ(serial.failures[i].violations.size(),
              parallel.failures[i].violations.size())
        << label << ": invariant outcome diverged for failing seed "
        << serial.failures[i].seed;
  }
  // Both sweeps publish their runner accounting; after dropping the
  // realtime rows (steals, workers, wall) the residue — the task count
  // — is identical regardless of fan-out.
  EXPECT_NE(serial.sweep_metrics_csv.find("sweep.tasks"),
            std::string::npos)
      << label;
  EXPECT_EQ(obs::StripRealtimeRows(serial.sweep_metrics_csv),
            obs::StripRealtimeRows(parallel.sweep_metrics_csv))
      << label;
}

TEST(SweepDeterminism, UnshardedTwentySeedsMatchSerialByteForByte) {
  AssertSweepDeterministic(UnshardedConfig(), 20, "unsharded");
}

TEST(SweepDeterminism, ShardedTwentySeedsMatchSerialByteForByte) {
  AssertSweepDeterministic(ShardedConfig(), 20, "sharded");
}

TEST(SweepDeterminism, PlannerTwentySeedsMatchSerialByteForByte) {
  AssertSweepDeterministic(PlannerConfig(), 20, "planner");
}

TEST(SweepDeterminism, MetricsSnapshotsMatchSerialByteForByte) {
  // The full CSV — every counter, gauge, histogram and time series the
  // cluster registered, in sorted-name order — compared as raw bytes
  // between a campaign run alone and the same campaign run while three
  // siblings execute concurrently. Catches cross-talk the folded
  // digest cannot see (the digest deliberately excludes metrics).
  chaos::CampaignConfig config = UnshardedConfig();
  std::vector<std::string> serial_csv;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    serial_csv.push_back(
        obs::StripRealtimeRows(chaos::RunCampaign(seed, config).metrics_csv));
  }
  sweep::SweepRunner runner({kParallelJobs});
  std::vector<std::string> parallel_csv(4);
  runner.Run(4, [&parallel_csv, &config](size_t i) {
    parallel_csv[i] = obs::StripRealtimeRows(
        chaos::RunCampaign(1 + static_cast<uint64_t>(i), config).metrics_csv);
  });
  for (size_t i = 0; i < serial_csv.size(); ++i) {
    ASSERT_FALSE(serial_csv[i].empty());
    EXPECT_EQ(serial_csv[i], parallel_csv[i])
        << "metrics snapshot for seed " << (1 + i)
        << " changed when run concurrently — registry cross-talk";
  }
}

// ------------------------------------------- failing seeds under --jobs

TEST(SweepViolation, FailingSeedKeepsPerSeedArtifactsUnInterleaved) {
  // The seeded Figure 7 restore bug: under this config seed 8 fails
  // (orphan-processes) and seed 3 passes — pinned by the golden replay
  // suite. Sweeping seeds 3..8 in parallel must (a) fail exactly the
  // seeds the serial sweep fails, (b) keep every failure's flight-
  // recorder/audit artifacts attached to its own seed with no
  // interleaving from sibling campaigns, and (c) fold to the same
  // digests.
  chaos::CampaignConfig config;
  config.seed_restore_bug = true;
  config.cluster.agent.allocation_report_every = 0;

  chaos::SweepResult serial = chaos::RunSeedSweep(3, 6, config, 1);
  chaos::SweepResult parallel = chaos::RunSeedSweep(3, 6, config,
                                                    kParallelJobs);
  ASSERT_GT(serial.failed, 0) << "the seeded bug must be caught";
  EXPECT_EQ(serial.failing_seeds, parallel.failing_seeds);
  EXPECT_EQ(serial.digests, parallel.digests);

  ASSERT_EQ(serial.failures.size(), parallel.failures.size());
  for (size_t i = 0; i < parallel.failures.size(); ++i) {
    const chaos::CampaignResult& failure = parallel.failures[i];
    // Every artifact names its own seed: the trace header line, the
    // fault log and the residual state are attributed, not pooled.
    std::string header =
        "campaign seed=" + std::to_string(failure.seed) + " ";
    EXPECT_EQ(failure.trace.rfind(header, 0), 0u)
        << "failure artifact carries another campaign's trace";
    EXPECT_FALSE(failure.residual_state.empty());
    EXPECT_FALSE(failure.violations.empty());
    EXPECT_FALSE(failure.audit_json.empty())
        << "audit dump lost for failing seed " << failure.seed;
    EXPECT_FALSE(failure.chrome_trace.empty())
        << "flight-recorder dump lost for failing seed " << failure.seed;
    EXPECT_EQ(failure.violations.size(),
              serial.failures[i].violations.size());
  }
}

// ------------------------------- per-cluster observability isolation

TEST(ConcurrentClusters, MetricSnapshotsShowNoCrossTalk) {
  // Two clusters driven concurrently on separate threads; each one's
  // metric registry must end up byte-identical to a cluster run alone.
  // This is the regression test for the thread-safety audit: metrics,
  // trace and audit are per-cluster members of Observability, never
  // process globals.
  auto run_cluster = [](uint64_t seed) {
    runtime::SimClusterOptions options;
    options.seed = seed;
    options.topology.racks = 2;
    options.topology.machines_per_rack = 2;
    runtime::SimCluster cluster(options);
    cluster.Start();
    cluster.RunFor(2.0);

    // A seed-keyed workload makes the snapshot seed-sensitive (worker
    // placement and instance durations vary), so genuine cross-talk
    // cannot hide behind two identical outputs.
    master::SubmitAppRpc submit;
    submit.app = AppId(1);
    submit.client = cluster.AllocateNodeId();
    cluster.network().Send(submit.client, cluster.primary()->node(),
                           submit);
    cluster.RunFor(0.1);
    runtime::SyntheticStage stage;
    stage.workers = 3;
    stage.instances = 9;
    runtime::SyntheticApp app(&cluster, AppId(1), {stage}, seed);
    app.MarkSubmitted(cluster.sim().Now());
    app.StartMaster();
    cluster.RunFor(30.0);

    return obs::StripRealtimeRows(obs::MetricsToCsv(cluster.obs().metrics));
  };
  std::string alone_a = run_cluster(11);
  std::string alone_b = run_cluster(22);
  ASSERT_FALSE(alone_a.empty());
  EXPECT_NE(alone_a, alone_b) << "distinct seeds should differ somewhere";

  std::vector<std::string> concurrent(2);
  sweep::SweepRunner runner({2});
  runner.Run(2, [&concurrent, &run_cluster](size_t i) {
    concurrent[i] = run_cluster(i == 0 ? 11 : 22);
  });
  EXPECT_EQ(concurrent[0], alone_a)
      << "cluster A's metrics changed because cluster B ran next to it";
  EXPECT_EQ(concurrent[1], alone_b)
      << "cluster B's metrics changed because cluster A ran next to it";
}

TEST(ConcurrentClusters, TraceCounterIdsAreClusterScoped) {
  // Span ids come from a per-recorder monotonic counter. Pin the
  // scoping: a cluster's span-id sequence — count, first id, parent
  // links — is identical whether it runs alone or beside a sibling, and
  // both concurrent clusters start their ids at 1 (a process-global
  // counter would give one of them the other's continuation).
  auto span_fingerprint = [](uint64_t seed) {
    runtime::SimClusterOptions options;
    options.seed = seed;
    options.topology.racks = 1;
    options.topology.machines_per_rack = 2;
    runtime::SimCluster cluster(options);
    cluster.Start();
    cluster.RunFor(10.0);
    // The ring snapshot is ordered by span completion, not id, so the
    // lowest retained id is folded in explicitly.
    uint64_t min_id = 0;
    std::string print;
    for (const obs::SpanRecord& span : cluster.obs().trace.Snapshot()) {
      if (min_id == 0 || span.id < min_id) min_id = span.id;
      print += std::to_string(span.id) + ">" + std::to_string(span.parent) +
               "@" + std::to_string(span.begin) + ";";
    }
    return "min=" + std::to_string(min_id) + ";" + print;
  };
  std::string alone = span_fingerprint(7);
  EXPECT_EQ(alone.rfind("min=1;", 0), 0u) << "span ids must start at 1";
  EXPECT_GT(alone.size(), std::string("min=1;").size())
      << "a 10s cluster run should have recorded spans";

  std::vector<std::string> concurrent(2);
  sweep::SweepRunner runner({2});
  runner.Run(2, [&concurrent, &span_fingerprint](size_t i) {
    concurrent[i] = span_fingerprint(7);
  });
  EXPECT_EQ(concurrent[0], alone);
  EXPECT_EQ(concurrent[1], alone)
      << "two identical clusters must emit identical span-id sequences "
         "even when they run concurrently";
}

template <int N>
struct SlotProbe {
  int value = N + 1;
};
// The whole probe family shares one test tag: a frame only needs a tag,
// the dispatch slot comes from the C++ type.
template <int N>
constexpr wire::TypeInfo WireTypeInfo(const SlotProbe<N>*) {
  return {wire::MsgTag::kTestSlotProbe, 1};
}
template <int N>
void WireEncode(wire::Writer& w, const SlotProbe<N>& m) {
  w.I32(m.value);
}
template <int N>
Status WireDecode(wire::Reader& r, SlotProbe<N>& m) {
  return r.I32(&m.value);
}

TEST(ConcurrentClusters, PayloadTypeSlotsRegisterRaceFree) {
  // A payload type takes its dispatch slot on first use, process-wide.
  // Two clusters start at once on sweep threads, so both register the
  // stack's message types, plus a batch of probe types nothing else
  // uses, concurrently (the TSan leg checks that this is race-free).
  // The concurrent pass runs first, while the probe types are still
  // unregistered. Each cluster must then match a run on its own.
  auto run_cluster = [](uint64_t seed, std::atomic<int>* arrived) {
    if (arrived != nullptr) {
      // Line both workers up so the registrations really overlap.
      arrived->fetch_add(1);
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(1);
      while (arrived->load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
      }
    }
    net::Endpoint sender;
    net::Endpoint receiver;
    runtime::SimClusterOptions options;
    options.seed = seed;
    options.topology.racks = 1;
    options.topology.machines_per_rack = 2;
    runtime::SimCluster cluster(options);
    NodeId from = cluster.AllocateNodeId();
    NodeId to = cluster.AllocateNodeId();
    cluster.network().Register(from, &sender);
    cluster.network().Register(to, &receiver);
    int received = 0;
    std::vector<uint32_t> slots;
    [&]<int... N>(std::integer_sequence<int, N...>) {
      (receiver.Handle<SlotProbe<N>>(
           [&received](const net::Envelope&, const SlotProbe<N>& probe) {
             received += probe.value;
           }),
       ...);
      (cluster.network().Send(from, to, SlotProbe<N>{}), ...);
      (slots.push_back(net::PayloadSlot<SlotProbe<N>>()), ...);
    }(std::make_integer_sequence<int, 16>{});
    cluster.Start();
    cluster.RunFor(5.0);
    std::string fingerprint =
        "received=" + std::to_string(received) + ";" +
        obs::StripRealtimeRows(obs::MetricsToCsv(cluster.obs().metrics));
    return std::make_pair(fingerprint, slots);
  };

  std::vector<std::pair<std::string, std::vector<uint32_t>>> concurrent(2);
  std::atomic<int> arrived{0};
  sweep::SweepRunner runner({2});
  runner.Run(2, [&](size_t i) {
    concurrent[i] = run_cluster(31 + i, &arrived);
  });
  for (size_t i = 0; i < 2; ++i) {
    auto alone = run_cluster(31 + i, nullptr);
    EXPECT_EQ(concurrent[i].first, alone.first) << "cluster " << i;
    EXPECT_EQ(concurrent[i].second, alone.second) << "cluster " << i;
    EXPECT_NE(alone.first.find("received=136;"), std::string::npos);
  }
  const std::vector<uint32_t>& slots = concurrent[0].second;
  EXPECT_EQ(std::set<uint32_t>(slots.begin(), slots.end()).size(),
            slots.size())
      << "every probe type must own a distinct slot";
}

}  // namespace
}  // namespace fuxi
