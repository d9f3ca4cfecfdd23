#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chaos/fault_schedule.h"
#include "chaos/invariant_monitor.h"
#include "common/json.h"
#include "net/network.h"
#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "runtime/sim_cluster.h"
#include "runtime/synthetic_app.h"
#include "sim/simulator.h"

namespace fuxi::obs {
namespace {

// ------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("net.sent");
  EXPECT_EQ(c, registry.GetCounter("net.sent"));
  c->Add(3);
  EXPECT_EQ(registry.GetCounter("net.sent")->value(), 3u);

  Gauge* g = registry.GetGauge("apps");
  EXPECT_EQ(g, registry.GetGauge("apps"));
  g->Set(2);
  g->Add(-1);
  EXPECT_DOUBLE_EQ(registry.GetGauge("apps")->value(), 1.0);

  Histogram* h = registry.GetHistogram("latency");
  EXPECT_EQ(h, registry.GetHistogram("latency"));
  EXPECT_EQ(h->sample_cap(), Histogram::kDefaultSampleCap);
}

// --------------------------------------------------------- TraceRecorder

TEST(TraceRecorderTest, NestedScopesChainParents) {
  sim::Simulator sim;
  TraceRecorder rec(&sim);
  uint64_t outer = rec.BeginSpan("test", "outer");
  uint64_t inner = 0;
  {
    TraceRecorder::Scope scope(&rec, outer);
    EXPECT_EQ(rec.current(), outer);
    inner = rec.BeginSpan("test", "inner");
    rec.EndSpan(inner);
  }
  EXPECT_EQ(rec.current(), 0u);
  rec.EndSpan(outer);

  std::vector<SpanRecord> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner span finished first, is recorded first, and is parented to
  // the span that was ambient when it began.
  EXPECT_EQ(spans[0].id, inner);
  EXPECT_EQ(spans[0].parent, outer);
  EXPECT_EQ(spans[1].id, outer);
  EXPECT_EQ(spans[1].parent, 0u);
}

TEST(TraceRecorderTest, IdsAreDeterministicAcrossRecorders) {
  sim::Simulator sim_a;
  sim::Simulator sim_b;
  TraceRecorder a(&sim_a);
  TraceRecorder b(&sim_b);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a.BeginSpan("t", "s"), b.BeginSpan("t", "s"));
  }
  EXPECT_EQ(a.spans_begun(), 5u);
  EXPECT_EQ(a.spans_begun(), b.spans_begun());
}

TEST(TraceRecorderTest, EndIsIdempotentAndDropFlags) {
  sim::Simulator sim;
  TraceRecorder rec(&sim);
  uint64_t ended = rec.BeginSpan("t", "ended");
  uint64_t dropped = rec.BeginSpan("t", "dropped");
  rec.EndSpan(ended);
  rec.EndSpan(ended);  // double-end: no-op, no duplicate record
  rec.EndSpan(0);      // "no span": no-op
  rec.DropSpan(dropped);
  EXPECT_EQ(rec.open_spans(), 0u);

  std::vector<SpanRecord> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_FALSE(spans[0].dropped);
  EXPECT_TRUE(spans[1].dropped);
}

TEST(TraceRecorderTest, WallClockIsAnnotationOnly) {
  sim::Simulator sim;
  TraceRecorder rec(&sim);
  uint64_t span = rec.BeginSpan("sched", "ApplyRequest");
  sim.Schedule(0.5, [] {});
  sim.RunToCompletion();
  rec.EndSpan(span, /*wall_us=*/123.5);
  std::vector<SpanRecord> spans = rec.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_DOUBLE_EQ(spans[0].begin, 0.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 0.5);  // virtual time, not wall clock
  EXPECT_DOUBLE_EQ(spans[0].wall_us, 123.5);
}

// -------------------------------------------------------- FlightRecorder

TEST(FlightRecorderTest, RingWrapsKeepingNewestOldestFirst) {
  FlightRecorder ring(4);
  for (uint64_t i = 1; i <= 10; ++i) {
    SpanRecord span;
    span.id = i;
    ring.Push(span);
  }
  EXPECT_EQ(ring.overwritten(), 6u);
  std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].id, 7 + i);
}

// Wrap-around regression battery for the generic ring. The old
// FlightRecorder derived the oldest slot from total-pushed arithmetic,
// which happened to work only while the fill pointer and the eviction
// pointer stayed in lockstep; BoundedRing keeps an explicit head so
// Snapshot() is oldest-first by construction. These pin the boundary
// cases: exactly full (no eviction yet), a partial second lap landing
// mid-ring, multiple full laps, and Clear() resetting the wrap state.
TEST(FlightRecorderTest, ExactlyFullRingSnapshotsOldestFirst) {
  FlightRecorder ring(4);
  for (uint64_t i = 1; i <= 4; ++i) {
    SpanRecord span;
    span.id = i;
    ring.Push(span);
  }
  EXPECT_EQ(ring.overwritten(), 0u);
  EXPECT_EQ(ring.size(), 4u);
  std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].id, 1 + i);
}

TEST(FlightRecorderTest, PartialSecondLapStaysOldestFirst) {
  // Capacity 3 (not a power of two), 5 pushes: head sits mid-ring.
  FlightRecorder ring(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    SpanRecord span;
    span.id = i;
    ring.Push(span);
  }
  EXPECT_EQ(ring.overwritten(), 2u);
  std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].id, 3u);
  EXPECT_EQ(spans[1].id, 4u);
  EXPECT_EQ(spans[2].id, 5u);
}

TEST(FlightRecorderTest, ManyLapsAndEveryFillLevelStayOrdered) {
  FlightRecorder ring(5);
  uint64_t next = 1;
  for (int pushes = 1; pushes <= 23; ++pushes) {
    SpanRecord span;
    span.id = next++;
    ring.Push(span);
    std::vector<SpanRecord> spans = ring.Snapshot();
    ASSERT_EQ(spans.size(), std::min<size_t>(5, ring.total_pushed()));
    // Strictly increasing ids ending at the just-pushed one.
    EXPECT_EQ(spans.back().id, span.id);
    for (size_t i = 1; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i].id, spans[i - 1].id + 1)
          << "out-of-order snapshot after " << pushes << " pushes";
    }
  }
}

TEST(FlightRecorderTest, ClearResetsWrapStateThenRewraps) {
  FlightRecorder ring(4);
  for (uint64_t i = 1; i <= 7; ++i) {
    SpanRecord span;
    span.id = i;
    ring.Push(span);
  }
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.overwritten(), 0u);
  EXPECT_TRUE(ring.Snapshot().empty());
  for (uint64_t i = 100; i < 106; ++i) {
    SpanRecord span;
    span.id = i;
    ring.Push(span);
  }
  std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(spans[i].id, 102 + i);
}

// -------------------------------------------- Network span propagation

struct PingRpc {
  int value = 0;
};
struct RelayRpc {
  int value = 0;
};
struct StrayRpc {
  int value = 0;
};
using TestPingRpc = PingRpc;
using TestRelayRpc = RelayRpc;
using TestStrayRpc = StrayRpc;
FUXI_WIRE_MESSAGE(TestPingRpc, 1, m.value)
FUXI_WIRE_MESSAGE(TestRelayRpc, 1, m.value)
FUXI_WIRE_MESSAGE(TestStrayRpc, 1, m.value)

class NetworkTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(&sim_, net::Network::Config{});
    network_->SetObservability(&obs_.trace, &obs_.metrics);
    network_->Register(NodeId(1), &a_);
    network_->Register(NodeId(2), &b_);
    network_->Register(NodeId(3), &c_);
  }

  sim::Simulator sim_;
  Observability obs_{&sim_};
  std::unique_ptr<net::Network> network_;
  net::Endpoint a_, b_, c_;
};

TEST_F(NetworkTraceTest, MessageSpansChainAcrossHops) {
  // 1 --Ping--> 2 --Relay--> 3. The relay is sent from inside the Ping
  // handler, so its span must be parented to the Ping message span.
  b_.Handle<PingRpc>([&](const net::Envelope&, const PingRpc& ping) {
    network_->Send(NodeId(2), NodeId(3), RelayRpc{ping.value + 1});
  });
  int relayed = -1;
  c_.Handle<RelayRpc>([&](const net::Envelope&, const RelayRpc& relay) {
    relayed = relay.value;
  });
  network_->Send(NodeId(1), NodeId(2), PingRpc{41});
  sim_.RunToCompletion();
  EXPECT_EQ(relayed, 42);

  std::vector<SpanRecord> spans = obs_.trace.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord* ping = nullptr;
  const SpanRecord* relay = nullptr;
  for (const SpanRecord& span : spans) {
    std::string name = span.name;
    if (name.find("PingRpc") != std::string::npos) ping = &span;
    if (name.find("RelayRpc") != std::string::npos) relay = &span;
  }
  ASSERT_NE(ping, nullptr);
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(ping->parent, 0u);  // sent from outside any handler
  EXPECT_EQ(relay->parent, ping->id);
  EXPECT_EQ(ping->from, 1);
  EXPECT_EQ(ping->to, 2);
  // A message span covers wire latency plus handler execution, so the
  // ping closes only after the relay has been sent.
  EXPECT_GE(ping->end, relay->begin);
  // Handler returned, ambient scope restored.
  EXPECT_EQ(obs_.trace.current(), 0u);
  EXPECT_EQ(obs_.trace.open_spans(), 0u);
}

TEST_F(NetworkTraceTest, VanishedMessagesKeepDroppedSpans) {
  network_->Send(NodeId(1), NodeId(2), PingRpc{1});
  network_->Partition(NodeId(2));  // in-flight copy dies at delivery
  sim_.RunToCompletion();

  std::vector<SpanRecord> spans = obs_.trace.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].dropped);
  EXPECT_EQ(obs_.trace.open_spans(), 0u);
  EXPECT_EQ(obs_.metrics.GetCounter("net.messages_dropped")->value(), 1u);
}

TEST_F(NetworkTraceTest, UnhandledPayloadsCountedPerType) {
  b_.Handle<PingRpc>([](const net::Envelope&, const PingRpc&) {});
  network_->Send(NodeId(1), NodeId(2), StrayRpc{});
  network_->Send(NodeId(1), NodeId(2), StrayRpc{});
  network_->Send(NodeId(1), NodeId(2), RelayRpc{});
  network_->Send(NodeId(1), NodeId(2), PingRpc{});
  sim_.RunToCompletion();

  EXPECT_EQ(b_.unhandled(), 3u);
  std::map<std::string, uint64_t> by_type = b_.UnhandledByType();
  ASSERT_EQ(by_type.size(), 2u);
  uint64_t stray = 0;
  uint64_t relay = 0;
  for (const auto& [name, count] : by_type) {
    // Demangled names: readable, not "8StrayRpc" mangled noise.
    if (name.find("StrayRpc") != std::string::npos) stray = count;
    if (name.find("RelayRpc") != std::string::npos) relay = count;
  }
  EXPECT_EQ(stray, 2u);
  EXPECT_EQ(relay, 1u);

  // The registry mirrors the per-type counts under net.unhandled.*.
  uint64_t registered = 0;
  for (const auto& [name, counter] : obs_.metrics.counters()) {
    if (name.rfind("net.unhandled.", 0) == 0) registered += counter->value();
  }
  EXPECT_EQ(registered, 3u);
}

// -------------------------------------------------------------- Exporters

TEST(ExporterTest, ChromeTraceRoundTripsThroughJsonParser) {
  sim::Simulator sim;
  TraceRecorder rec(&sim);
  uint64_t parent = rec.BeginMessageSpan(net::PayloadSlot<PingRpc>(),
                                         typeid(PingRpc), 1, 2, 128);
  uint64_t child = 0;
  {
    TraceRecorder::Scope scope(&rec, parent);
    child = rec.BeginSpan("sched", "ApplyRequest");
    rec.EndSpan(child, /*wall_us=*/42.0);
  }
  rec.EndSpan(parent);
  uint64_t dropped = rec.BeginMessageSpan(net::PayloadSlot<RelayRpc>(),
                                          typeid(RelayRpc), 2, 3, 64);
  rec.DropSpan(dropped);

  std::string text = ExportChromeTrace(rec.Snapshot());
  Result<Json> parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Json* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->as_array().size(), 3u);

  std::map<uint64_t, const Json*> by_span;
  for (const Json& event : events->as_array()) {
    EXPECT_EQ(event.GetString("ph"), "X");
    const Json* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    by_span[static_cast<uint64_t>(args->GetInt("span"))] = &event;
  }
  ASSERT_TRUE(by_span.count(child));
  const Json* child_args = by_span[child]->Find("args");
  EXPECT_EQ(child_args->GetInt("parent"), static_cast<int64_t>(parent));
  EXPECT_DOUBLE_EQ(child_args->GetNumber("wall_us"), 42.0);
  const Json* parent_args = by_span[parent]->Find("args");
  EXPECT_EQ(parent_args->GetInt("from"), 1);
  EXPECT_EQ(parent_args->GetInt("to"), 2);
  EXPECT_EQ(parent_args->GetInt("bytes"), 128);
  const Json* dropped_args = by_span[dropped]->Find("args");
  EXPECT_TRUE(dropped_args->GetBool("dropped"));
}

TEST(ExporterTest, MetricsExportBothFormats) {
  MetricsRegistry registry;
  registry.GetCounter("net.sent")->Add(7);
  registry.GetGauge("apps")->Set(3);
  Histogram* h = registry.GetHistogram("lat");
  for (int i = 1; i <= 100; ++i) h->Add(i);

  Json doc = MetricsToJson(registry);
  EXPECT_EQ(doc.Find("counters")->GetInt("net.sent"), 7);
  EXPECT_DOUBLE_EQ(doc.Find("gauges")->GetNumber("apps"), 3.0);
  const Json* lat = doc.Find("histograms")->Find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->GetInt("count"), 100);
  EXPECT_NEAR(lat->GetNumber("p50"), 50.5, 0.01);
  // The whole document must round-trip through the parser.
  Result<Json> reparsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();

  std::string csv = MetricsToCsv(registry);
  EXPECT_NE(csv.find("kind,name,count,value,mean,p50,p95,p99,min,max"),
            std::string::npos);
  EXPECT_NE(csv.find("counter,net.sent,,7"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,100"), std::string::npos);
}

// Metric names are caller-chosen strings; exports must survive names
// containing the formats' own delimiters. CSV gets RFC 4180 quoting
// (wrap in double quotes, double embedded quotes); JSON relies on the
// string escaper and must re-parse to the same keys.
TEST(ExporterTest, CsvQuotesMetricNamesWithDelimiters) {
  MetricsRegistry registry;
  registry.GetCounter("rack,0.sent")->Add(7);
  registry.GetCounter("weird\"name")->Add(8);
  registry.GetGauge("multi\nline")->Set(3);
  registry.GetHistogram("plain.lat")->Add(1.0);
  registry.GetHistogram("both,\"of\",them")->Add(2.0);

  std::string csv = MetricsToCsv(registry);
  // Comma-bearing names are wrapped so the column count stays fixed.
  EXPECT_NE(csv.find("counter,\"rack,0.sent\",,7"), std::string::npos);
  // Embedded quotes are doubled per RFC 4180.
  EXPECT_NE(csv.find("counter,\"weird\"\"name\",,8"), std::string::npos);
  // Newlines are quoted so the record does not split.
  EXPECT_NE(csv.find("gauge,\"multi\nline\",,3"), std::string::npos);
  EXPECT_NE(csv.find("histogram,\"both,\"\"of\"\",them\",1"),
            std::string::npos);
  // Benign names stay unquoted (stable format for downstream greps).
  EXPECT_NE(csv.find("histogram,plain.lat,1"), std::string::npos);
  EXPECT_EQ(csv.find("histogram,\"plain.lat\""), std::string::npos);
}

TEST(ExporterTest, JsonEscapesMetricNamesAndRoundTrips) {
  MetricsRegistry registry;
  registry.GetCounter("weird\"name")->Add(8);
  registry.GetCounter("multi\nline")->Add(9);
  registry.GetGauge("back\\slash")->Set(4);

  Json doc = MetricsToJson(registry);
  Result<Json> reparsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().message();
  const Json* counters = reparsed.value().Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->GetInt("weird\"name"), 8);
  EXPECT_EQ(counters->GetInt("multi\nline"), 9);
  const Json* gauges = reparsed.value().Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->GetNumber("back\\slash"), 4.0);
}

// ------------------------------------------------ SimCluster integration

TEST(ObsClusterTest, ClusterTrafficFillsInstruments) {
  runtime::SimClusterOptions options;
  options.topology.racks = 1;
  options.topology.machines_per_rack = 2;
  runtime::SimCluster cluster(options);
  cluster.Start();
  cluster.RunFor(5.0);

  const MetricsRegistry& metrics = cluster.obs().metrics;
  // Heartbeats alone push messages through the instrumented network.
  EXPECT_GT(
      cluster.obs().metrics.counters().at("net.messages_sent")->value(), 0u);
  EXPECT_EQ(metrics.counters().at("net.messages_sent")->value(),
            cluster.network().stats().messages_sent);
  EXPECT_EQ(metrics.counters().at("master.elections")->value(), 1u);
  EXPECT_GT(cluster.obs().trace.spans_begun(), 0u);
  EXPECT_FALSE(cluster.obs().trace.Snapshot().empty());
}

// -------------------------------------------------- Acceptance scenario
//
// The ISSUE's acceptance criterion: a failed chaos scenario (the seeded
// double-grant regression) automatically produces a Chrome-trace dump
// whose spans let the message chain be reconstructed.

class ObsChaosTest : public ::testing::Test {
 protected:
  runtime::SimClusterOptions BuggyTinyClusterOptions() {
    runtime::SimClusterOptions options;
    options.topology.racks = 1;
    options.topology.machines_per_rack = 2;
    options.topology.machine_capacity = cluster::ResourceVector(400, 8192);
    // Seed the Figure 7 regression: failover re-grants without
    // restoring existing grants, double-booking the machines.
    options.master.failover_restore_grants = false;
    // The periodic reconcile would repair the bug before the sustained
    // window elapses; the scenario needs it off.
    options.agent.allocation_report_every = 0;
    return options;
  }

  std::unique_ptr<runtime::SyntheticApp> SubmitFillingApp(
      runtime::SimCluster* cluster) {
    runtime::SyntheticStage stage;
    stage.slot_id = 0;
    stage.workers = 8;
    stage.instances = 8;
    stage.instance_duration = 120.0;
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

TEST_F(ObsChaosTest, ViolationDumpReconstructsCausalMessageChain) {
  runtime::SimCluster cluster(BuggyTinyClusterOptions());
  chaos::InvariantMonitor monitor(&cluster);
  chaos::ChaosEngine engine(&cluster);
  cluster.Start();
  monitor.Start();
  cluster.RunFor(2.0);
  auto app = SubmitFillingApp(&cluster);
  cluster.RunFor(15.0);
  engine.Inject(engine.KillPrimaryMaster());
  cluster.RunFor(30.0);
  ASSERT_FALSE(monitor.violations().empty()) << monitor.Summary();

  // The monitor snapshotted the flight recorder at the first violation.
  ASSERT_FALSE(monitor.trace_dump().empty());
  Result<Json> parsed = Json::Parse(monitor.trace_dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Json* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GT(events->as_array().size(), 100u)
      << "the dump should hold the causal history, not a handful of spans";

  // Reconstruct the causal graph from the dump alone.
  std::map<int64_t, int64_t> parent_of;
  for (const Json& event : events->as_array()) {
    const Json* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    parent_of[args->GetInt("span")] = args->GetInt("parent", 0);
  }
  // The double-grant flows through multi-hop chains (request -> grant
  // -> start-worker); demand at least one chain with two ancestors all
  // present in the dump.
  size_t chained = 0;
  size_t deep = 0;
  for (const auto& [span, parent] : parent_of) {
    if (parent == 0) continue;
    if (!parent_of.count(parent)) continue;
    ++chained;
    int64_t grandparent = parent_of[parent];
    if (grandparent != 0 && parent_of.count(grandparent)) ++deep;
  }
  EXPECT_GT(chained, 0u) << "no parent/child span pair in the dump";
  EXPECT_GT(deep, 0u) << "no 3-deep causal chain in the dump";
}

}  // namespace
}  // namespace fuxi::obs
