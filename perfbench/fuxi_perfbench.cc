// The repository benchmark: one command, three workloads, end-to-end
// metrics on an untraced run and a per-layer split on a traced run.
//
//   fuxi_perfbench --workload contended|wide|chaos --seed N
//                  --seconds S --trace 0|1
//
// A run repeats fixed units of work (inputs derived from the seed, a
// fixed virtual-time window) until --seconds of wall time are spent,
// checks that every replay of an input made the same decisions, and
// reports medians over the repeats.
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). See README.md for the workloads and the metric
// definitions.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "chaos/campaign.h"
#include "layer_tracer.h"
#include "obs/exporters.h"
#include "sweep/sweep_runner.h"

namespace {

using namespace fuxi;
using namespace fuxi::perfbench;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->workload == "contended" || args->workload == "wide" ||
          args->workload == "chaos");
}

/// Metrics, checks and operation counts of one benchmark run.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Check(bool ok, const std::string& what) {
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) correct = false;
  }
  void Print() const {
    for (const auto& [name, value] : metrics) {
      std::printf("%-32s %18.6f %s\n", name.c_str(), value.first,
                  value.second.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].second.first);
      json += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " +
              value + ", \"unit\": \"" + metrics[i].second.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }
};

/// Per-layer metrics every workload reports in a traced run; the ones a
/// workload does not exercise stay 0.
const char* const kPerLayerMetrics[][2] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.event_us_p50", "us"},
    {"sim.event_us_p99", "us"},
    {"sim.timer_self_s", "s"},
    {"net.messages_sent", "count"},
    {"net.bytes_sent", "bytes"},
    {"net.messages_dropped", "count"},
    {"net.decode_drops", "count"},
    {"net.self_s", "s"},
    {"wire.sos_overhead_s", "s"},
    {"master.requests", "count"},
    {"master.full_state_calls", "count"},
    {"master.full_state_s", "s"},
    {"master.incremental_s", "s"},
    {"master.rpc_self_s", "s"},
    {"master.request_us_p50", "us"},
    {"master.request_us_p99", "us"},
    {"sched.schedule_passes", "count"},
    {"sched.pass_skip_ratio", "ratio"},
    {"sched.negfit_hit_ratio", "ratio"},
    {"resource.queue_depth_mean", "units"},
    {"agent.rpc_self_s", "s"},
    {"agent.heartbeats", "count"},
    {"app.rpc_self_s", "s"},
    {"obs.telemetry_s", "s"},
    {"obs.trace_spans", "count"},
    {"obs.self_s", "s"},
    {"chaos.campaign_s_p50", "s"},
    {"chaos.campaign_s_max", "s"},
    {"chaos.heavy_checks", "count"},
    {"chaos.events", "count"},
    {"sweep.busy_frac", "ratio"},
    {"sweep.steals", "count"},
    {"planner.gang_aborts", "count"},
    {"planner.backfill_hits", "count"},
    {"fairshare.headroom_clamps", "count"},
    {"fairshare.preempt_budget_denials", "count"},
    {"router.spillovers", "count"},
    {"router.retries", "count"},
    {"bench.trace_overhead_s", "s"},
    {"bench.trace_coverage", "ratio"},
};

/// Emits kPerLayerMetrics in order, taking values from `values` and 0
/// for the layers this workload does not exercise.
void AddPerLayer(const std::map<std::string, double>& values,
                 Outcome* outcome) {
  for (const auto& metric : kPerLayerMetrics) {
    auto it = values.find(metric[0]);
    outcome->Add(metric[0], it == values.end() ? 0.0 : it->second,
                 metric[1]);
  }
}

/// Prints the layer self-time table, largest first.
void PrintLayerTable(std::vector<std::pair<std::string, double>> rows,
                     double window_s) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::printf("%-24s %12s %8s\n", "layer (self time)", "seconds", "share");
  for (const auto& [name, seconds] : rows) {
    std::printf("%-24s %12.4f %7.1f%%\n", name.c_str(), seconds,
                100.0 * Ratio(seconds, window_s));
  }
}

uint64_t FoldDigest(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// --- contended / wide: one SimCluster under the closed-loop workload ---

struct ClusterShape {
  int machines;
  int master_replicas;
  int jobs;
  /// Measured virtual seconds after the jobs are submitted; decision
  /// times, utilisation and queue depth come from the second half.
  double window_vs;
  bool contended;  ///< regime the workload claims (guarded)
};

// Regime guards: contended skips under 10% of its scheduling passes,
// wide skips every one.
constexpr double kContendedMaxSkipRatio = 0.5;
constexpr double kWideMinSkipRatio = 0.9;
constexpr double kSampleInterval = 5.0;  // virtual seconds
/// Virtual seconds of settling after Start(): the election, agent
/// registration and a few heartbeat rounds. Five seconds rather than
/// the two the Fig 9 bench uses, so that set-up time is mostly event
/// processing; at two seconds it was a few milliseconds of allocation
/// whose median moved by 46% between two ten-seed sets of runs.
constexpr double kSettle = 5.0;
/// Instance durations: the Fig 9 bench's 10-120 s band scaled by 1/5, so
/// that hundreds of jobs finish inside a window of tens of virtual
/// seconds instead of the first completions arriving after ~55 s.
constexpr double kMinInstanceSeconds = 2;
constexpr double kMaxInstanceSeconds = 24;
/// An untraced run alternates two job streams derived from its seed
/// (seed*2 and seed*2+1) and pools their virtual-time outcomes, which
/// halves the seed-to-seed variance of job counts at no extra cost; the
/// third repeat replays the first stream to check determinism.
constexpr uint64_t kStreams = 2;
/// Set-up is short next to a repeat, so a run times it this many times
/// (each repeat's own set-up plus set-up-only builds) and reports the
/// median. Set-up time depends on the cluster seed (election and first
/// heartbeats), so the set-up-only builds each take another seed.
constexpr size_t kSetupSamples = 7;

enum class Mode { kPlain, kTraced, kTracedNoTelemetry };

/// One repeat's results. Everything outside the wall-clock fields is
/// virtual-time state and must repeat exactly.
struct ClusterRepeat {
  Mode mode = Mode::kPlain;
  uint64_t stream = 0;  ///< input seed of the cluster and job stream
  double setup_s = 0;
  double wall_s = 0;
  std::vector<double> decision_us;  ///< steady-state half
  int64_t jobs_completed = 0;
  std::vector<double> turnaround_vs;  ///< submit to finish, per finished job
  double mem_util_pct = 0;
  uint64_t events = 0;
  std::map<std::string, uint64_t> counters;  ///< registry deltas
  uint64_t passes = 0;
  uint64_t passes_skipped = 0;
  double queue_depth_mean = 0;
  bool queue_emptied = false;
  uint64_t submitted = 0;
  uint64_t failed_submissions = 0;
  bool invariants_ok = false;
  uint64_t trace_spans = 0;
  // Traced repeats only.
  double window_s = 0;
  double attributed_s = 0;
  double layer_s[kLayerCount] = {};
  double event_us_p50 = 0;
  double event_us_p99 = 0;
  uint64_t full_state_calls = 0;
  uint64_t incremental_calls = 0;
  double full_state_s = 0;
  double incremental_s = 0;

  uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  uint64_t Digest() const {
    uint64_t hash = 0xcbf29ce484222325ull;
    hash = FoldDigest(hash, events);
    hash = FoldDigest(hash, static_cast<uint64_t>(jobs_completed));
    hash = FoldDigest(hash, passes);
    hash = FoldDigest(hash, passes_skipped);
    hash = FoldDigest(hash, submitted);
    for (const auto& [name, value] : counters) hash = FoldDigest(hash, value);
    uint64_t bits;
    for (double t : turnaround_vs) {
      std::memcpy(&bits, &t, sizeof(bits));
      hash = FoldDigest(hash, bits);
    }
    std::memcpy(&bits, &mem_util_pct, sizeof(bits));
    return FoldDigest(hash, bits);
  }
};

/// Registry counters the benchmark reads (deltas over the window).
std::map<std::string, uint64_t> ReadCounters(
    const obs::MetricsRegistry& metrics) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, counter] : metrics.counters()) {
    bool wanted = name.rfind("net.messages_", 0) == 0 ||
                  name == "net.bytes_sent" || name == "net.decode_drops" ||
                  name.rfind("sched.negfit_cache_", 0) == 0 ||
                  name.rfind("planner.", 0) == 0 ||
                  name.rfind("fairshare.", 0) == 0 ||
                  name.rfind("router.", 0) == 0;
    if (name.rfind("net.msgs.", 0) == 0 &&
        name.size() > 17 &&
        name.compare(name.size() - 17, 17, "AgentHeartbeatRpc") == 0) {
      out["agent.heartbeats"] = counter->value();
    }
    if (wanted && !metrics.is_realtime(name)) out[name] = counter->value();
  }
  return out;
}

/// Builds, starts and settles the cluster: the set-up every repeat pays
/// before its workload starts.
std::unique_ptr<runtime::SimCluster> BuildCluster(const ClusterShape& shape,
                                                  uint64_t seed, Mode mode) {
  runtime::SimClusterOptions options =
      bench::BenchClusterOptions(shape.machines);
  options.master_replicas = shape.master_replicas;
  options.seed = seed;
  if (mode != Mode::kPlain) {
    options.obs.trace_ring_capacity = kTracedRingCapacity;
  }
  if (mode == Mode::kTracedNoTelemetry) options.obs.telemetry.enabled = false;
  auto cluster = std::make_unique<runtime::SimCluster>(options);
  cluster->Start();
  cluster->RunFor(kSettle);
  return cluster;
}

ClusterRepeat RunClusterRepeat(const ClusterShape& shape, uint64_t seed,
                               Mode mode) {
  ClusterRepeat r;
  r.mode = mode;
  r.stream = seed;
  auto setup_start = Clock::now();
  std::unique_ptr<runtime::SimCluster> cluster =
      BuildCluster(shape, seed, mode);
  r.setup_s = Since(setup_start);
  master::FuxiMaster* primary = cluster->primary();
  if (primary == nullptr) return r;  // reported by the invariant check

  std::unique_ptr<perfbench::LayerTracer> tracer;
  if (mode != Mode::kPlain) {
    tracer = std::make_unique<perfbench::LayerTracer>(cluster.get());
  }
  primary->EnableDecisionTiming(true);
  const resource::Scheduler* scheduler = primary->scheduler();
  uint64_t events0 = cluster->sim().ExecutedEvents();
  uint64_t spans0 = cluster->obs().trace.spans_begun();
  uint64_t passes0 = scheduler->scheduling_passes();
  uint64_t skipped0 = scheduler->passes_skipped();
  std::map<std::string, uint64_t> counters0 =
      ReadCounters(cluster->obs().metrics);

  bench::BenchScale scale;
  scale.machines = shape.machines;
  scale.concurrent_jobs = shape.jobs;
  scale.min_instance_seconds = kMinInstanceSeconds;
  scale.max_instance_seconds = kMaxInstanceSeconds;
  auto window_start = Clock::now();
  bench::WorkloadDriver closed_loop(cluster.get(), scale, seed);
  closed_loop.Start();
  const int samples = static_cast<int>(shape.window_vs / kSampleInterval);
  size_t steady_from = 0;
  double mem_pct_sum = 0;
  double depth_sum = 0;
  int steady_samples = 0;
  for (int i = 1; i <= samples; ++i) {
    if (tracer != nullptr) {
      tracer->RunFor(kSampleInterval);
    } else {
      cluster->RunFor(kSampleInterval);
    }
    int64_t depth = scheduler->locality_tree().TotalWaitingUnits();
    // The first interval is the fill: the queue forms inside it.
    if (i > 1 && depth == 0) r.queue_emptied = true;
    if (2 * i == samples) steady_from = primary->decision_micros().size();
    if (2 * i > samples) {
      mem_pct_sum += 100.0 *
                     Ratio(static_cast<double>(scheduler->TotalGranted().memory()),
                           static_cast<double>(
                               scheduler->TotalCapacity().memory()));
      depth_sum += static_cast<double>(depth);
      ++steady_samples;
    }
  }
  r.wall_s = Since(window_start);
  const double end = cluster->sim().Now();

  const std::vector<double>& micros = primary->decision_micros();
  r.decision_us.assign(micros.begin() + static_cast<std::ptrdiff_t>(steady_from),
                       micros.end());
  r.jobs_completed = closed_loop.jobs_completed();
  for (const auto& app : closed_loop.apps()) {
    const runtime::SyntheticApp::Stats& stats = app->stats();
    ++r.submitted;
    if (app->finished()) {
      r.turnaround_vs.push_back(stats.finished_at - stats.submitted_at);
    } else if (stats.submitted_at <= end - 1.0 &&
               (stats.am_started_at < 0 || !scheduler->HasApp(app->app()))) {
      // Refused by the master, or its application master never came up.
      ++r.failed_submissions;
    }
  }
  r.mem_util_pct = Ratio(mem_pct_sum, steady_samples);
  r.queue_depth_mean = Ratio(depth_sum, steady_samples);
  r.events = cluster->sim().ExecutedEvents() - events0;
  r.trace_spans = cluster->obs().trace.spans_begun() - spans0;
  r.passes = scheduler->scheduling_passes() - passes0;
  r.passes_skipped = scheduler->passes_skipped() - skipped0;
  r.counters = ReadCounters(cluster->obs().metrics);
  for (auto& [name, value] : r.counters) value -= counters0[name];
  r.invariants_ok = scheduler->CheckInvariants();

  if (tracer != nullptr) {
    r.window_s = tracer->window_s();
    r.attributed_s = tracer->attributed_s();
    for (int l = 0; l < kLayerCount; ++l) r.layer_s[l] = tracer->self_s(l);
    r.event_us_p50 = Quantile(tracer->event_us(), 0.50);
    r.event_us_p99 = Quantile(tracer->event_us(), 0.99);
    r.full_state_calls = tracer->full_state_calls();
    r.incremental_calls = tracer->incremental_calls();
    r.full_state_s = tracer->full_state_s();
    r.incremental_s = tracer->incremental_s();
  }
  return r;
}

Outcome RunClusterWorkload(const ClusterShape& shape, const Args& args) {
  // Untraced runs repeat plain units over the two job streams. Traced
  // runs replay the first stream, alternating traced and plain units
  // (the difference is the tracing overhead); on the undersubscribed
  // shape they also run a traced unit with telemetry detached, whose
  // difference is the telemetry sampler's cost.
  std::vector<Mode> cycle = {Mode::kPlain};
  uint64_t streams = kStreams;
  if (args.trace) {
    cycle = {Mode::kTraced, Mode::kPlain};
    if (!shape.contended) cycle.push_back(Mode::kTracedNoTelemetry);
    streams = 1;
  }
  const size_t min_repeats = std::max<size_t>(streams + 1, cycle.size());
  std::vector<ClusterRepeat> repeats;
  auto start = Clock::now();
  double longest = 0;
  while (repeats.size() < min_repeats ||
         Since(start) + longest <= args.seconds) {
    auto unit_start = Clock::now();
    uint64_t stream = args.seed * kStreams + repeats.size() % streams;
    repeats.push_back(RunClusterRepeat(shape, stream,
                                       cycle[repeats.size() % cycle.size()]));
    longest = std::max(longest, Since(unit_start));
    std::printf("repeat %zu: stream %llu, setup %.4f s, window %.3f s\n",
                repeats.size(), static_cast<unsigned long long>(stream),
                repeats.back().setup_s, repeats.back().wall_s);
  }

  Outcome out;
  std::vector<double> setup, wall, traced_wall, notel_wall;
  while (setup.size() + repeats.size() < kSetupSamples) {
    auto setup_start = Clock::now();
    std::unique_ptr<runtime::SimCluster> cluster = BuildCluster(
        shape, args.seed * kSetupSamples + setup.size(), Mode::kPlain);
    setup.push_back(Since(setup_start));
  }
  // The first repeat of each stream carries its virtual-time outcomes;
  // every later repeat of that stream must reproduce them exactly.
  std::map<uint64_t, const ClusterRepeat*> first_of;
  std::vector<double> decisions;
  bool same = true;
  bool invariants = true;
  for (const ClusterRepeat& r : repeats) {
    auto [it, inserted] = first_of.emplace(r.stream, &r);
    same = same && it->second->Digest() == r.Digest();
    setup.push_back(r.setup_s);
    invariants = invariants && r.invariants_ok;
    out.attempted += r.submitted;
    out.failed += r.failed_submissions;
    if (r.mode == Mode::kPlain) {
      wall.push_back(r.wall_s);
      decisions.insert(decisions.end(), r.decision_us.begin(),
                       r.decision_us.end());
    } else if (r.mode == Mode::kTraced) {
      traced_wall.push_back(r.wall_s);
    } else {
      notel_wall.push_back(r.wall_s);
    }
  }
  std::printf("workload %s seed=%llu: %d machines, %d master(s), %d jobs, "
              "%.0f virtual s, %zu repeats\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), shape.machines,
              shape.master_replicas, shape.jobs, shape.window_vs,
              repeats.size());
  double jobs = 0;
  double mem_util = 0;
  std::vector<double> turnaround;
  bool regime = true;
  for (const auto& [stream, r] : first_of) {
    const double skip_ratio = Ratio(static_cast<double>(r->passes_skipped),
                                    static_cast<double>(r->passes));
    std::printf("stream %llu digest %016llx (events=%llu jobs_completed=%lld "
                "messages_sent=%llu pass_skip_ratio=%.4f)\n",
                static_cast<unsigned long long>(stream),
                static_cast<unsigned long long>(r->Digest()),
                static_cast<unsigned long long>(r->events),
                static_cast<long long>(r->jobs_completed),
                static_cast<unsigned long long>(
                    r->counter("net.messages_sent")),
                skip_ratio);
    jobs += static_cast<double>(r->jobs_completed) / first_of.size();
    mem_util += r->mem_util_pct / first_of.size();
    turnaround.insert(turnaround.end(), r->turnaround_vs.begin(),
                      r->turnaround_vs.end());
    regime = regime && (shape.contended
                            ? skip_ratio <= kContendedMaxSkipRatio &&
                                  !r->queue_emptied
                            : skip_ratio >= kWideMinSkipRatio);
  }
  std::printf("decision samples (steady-state half, plain repeats): %zu\n",
              decisions.size());
  out.Check(same, "events, jobs and messages identical across repeats");
  out.Check(invariants, "Scheduler::CheckInvariants on the primary");
  if (shape.contended) {
    out.Check(regime, "contended: pass-skip ratio <= " +
                          std::to_string(kContendedMaxSkipRatio) +
                          ", queue never empties");
  } else {
    out.Check(regime, "wide: undersubscribed, pass-skip ratio >= " +
                          std::to_string(kWideMinSkipRatio));
  }
  out.Check(out.failed == 0, "every job submission accepted and started");

  if (!args.trace) {
    out.Add("setup_s", Median(setup), "s");
    out.Add("wall_s", Median(wall), "s");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    out.Add("jobs_completed", jobs, "count");
    out.Add("job_turnaround_p50_vs", Median(turnaround), "vs");
    out.Add("mem_util_pct", mem_util, "%");
    return out;
  }

  // Per-layer split from the first traced repeat.
  const ClusterRepeat* t = nullptr;
  for (const ClusterRepeat& r : repeats) {
    if (r.mode == Mode::kTraced) {
      t = &r;
      break;
    }
  }
  const double coverage = Ratio(t->attributed_s, t->window_s);
  out.Check(coverage >= 0.95, "traced: attributed event time " +
                                  std::to_string(coverage) + " >= 0.95");
  const double master_self =
      t->layer_s[kMaster] - t->full_state_s - t->incremental_s;
  PrintLayerTable({{"sim (timers)", t->layer_s[kSim]},
                   {"master.full_state", t->full_state_s},
                   {"master.incremental", t->incremental_s},
                   {"master.rpc_self", master_self},
                   {"agent", t->layer_s[kAgent]},
                   {"app", t->layer_s[kApp]},
                   {"net (drops)", t->layer_s[kNet]},
                   {"obs (watchdog)", t->layer_s[kObs]},
                   {"unattributed", t->window_s - t->attributed_s}},
                  t->window_s);
  std::map<std::string, double> v;
  v["sim.events"] = static_cast<double>(t->events);
  v["sim.events_per_s"] = Ratio(static_cast<double>(t->events), t->window_s);
  v["sim.event_us_p50"] = t->event_us_p50;
  v["sim.event_us_p99"] = t->event_us_p99;
  v["sim.timer_self_s"] = t->layer_s[kSim];
  for (const char* name : {"net.messages_sent", "net.bytes_sent",
                           "net.messages_dropped", "net.decode_drops",
                           "agent.heartbeats", "planner.gang_aborts",
                           "planner.backfill_hits",
                           "fairshare.headroom_clamps",
                           "fairshare.preempt_budget_denials",
                           "router.spillovers", "router.retries"}) {
    v[name] = static_cast<double>(t->counter(name));
  }
  v["net.self_s"] = t->layer_s[kNet];
  v["master.requests"] =
      static_cast<double>(t->full_state_calls + t->incremental_calls);
  v["master.full_state_calls"] = static_cast<double>(t->full_state_calls);
  v["master.full_state_s"] = t->full_state_s;
  v["master.incremental_s"] = t->incremental_s;
  v["master.rpc_self_s"] = master_self;
  v["master.request_us_p50"] = Quantile(decisions, 0.50);
  v["master.request_us_p99"] = Quantile(decisions, 0.99);
  v["sched.schedule_passes"] = static_cast<double>(t->passes);
  v["sched.pass_skip_ratio"] = Ratio(static_cast<double>(t->passes_skipped),
                                     static_cast<double>(t->passes));
  const double hits = static_cast<double>(t->counter("sched.negfit_cache_hits"));
  v["sched.negfit_hit_ratio"] =
      Ratio(hits, hits + static_cast<double>(
                             t->counter("sched.negfit_cache_misses")));
  v["resource.queue_depth_mean"] = t->queue_depth_mean;
  v["agent.rpc_self_s"] = t->layer_s[kAgent];
  v["app.rpc_self_s"] = t->layer_s[kApp];
  v["obs.trace_spans"] = static_cast<double>(t->trace_spans);
  v["obs.self_s"] = t->layer_s[kObs];
  if (!notel_wall.empty()) {
    v["obs.telemetry_s"] = Median(traced_wall) - Median(notel_wall);
  }
  v["bench.trace_overhead_s"] = Median(traced_wall) - Median(wall);
  v["bench.trace_coverage"] = coverage;
  AddPerLayer(v, &out);
  return out;
}

// --- chaos: composed fault campaigns on a sweep runner ------------------

/// Campaigns per repeat; the seed argument picks which block of
/// campaign seeds (seed*kCampaigns+1 ..) the repeat sweeps.
constexpr int kCampaigns = 8;

chaos::CampaignConfig ChaosConfig() {
  chaos::CampaignConfig config = chaos::ShardedCampaignConfig(2);
  config.cluster.topology.racks = 16;
  config.cluster.topology.machines_per_rack = 25;
  config.apps = 40;
  config.instances_per_app = 480;
  config.planner_apps = 8;
  config.tenants = 24;
  config.tenant_depth = 2;
  config.cluster.network.serialize_on_send = true;
  return config;
}

/// The parts of a CampaignResult the benchmark keeps.
struct CampaignSummary {
  bool ok = false;
  double completed_at = 0;
  double wall_s = 0;
  uint64_t events = 0;
  uint64_t heavy_checks = 0;
  int64_t instances_done = 0;
  uint64_t replay_digest = 0;
  double decision_p50_us = 0;
  double decision_p99_us = 0;
  uint64_t decisions = 0;
  /// Deterministic registry counters (realtime rows stripped).
  std::map<std::string, uint64_t> counters;
};

std::vector<std::string> SplitCsvRow(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream row(line);
  for (std::string cell; std::getline(row, cell, ',');) fields.push_back(cell);
  return fields;
}

/// Reads the deterministic counter rows and the master.schedule_wall_us
/// histogram out of an obs::MetricsToCsv dump
/// (kind,name,count,value,mean,p50,p95,p99,min,max,realtime).
void ParseMetricsCsv(const std::string& csv, CampaignSummary* summary) {
  std::istringstream counters(obs::StripRealtimeRows(csv));
  std::string line;
  while (std::getline(counters, line)) {
    std::vector<std::string> f = SplitCsvRow(line);
    if (f.size() >= 4 && f[0] == "counter") {
      summary->counters[f[1]] = std::strtoull(f[3].c_str(), nullptr, 10);
    }
  }
  std::istringstream all(csv);
  while (std::getline(all, line)) {
    std::vector<std::string> f = SplitCsvRow(line);
    if (f.size() >= 8 && f[0] == "histogram" &&
        f[1] == "master.schedule_wall_us") {
      summary->decisions = std::strtoull(f[2].c_str(), nullptr, 10);
      summary->decision_p50_us = std::atof(f[5].c_str());
      summary->decision_p99_us = std::atof(f[7].c_str());
    }
  }
}

CampaignSummary Summarize(const chaos::CampaignResult& result, double wall_s) {
  CampaignSummary s;
  s.ok = result.ok();
  s.completed_at = result.completed_at;
  s.wall_s = wall_s;
  s.events = result.events;
  s.heavy_checks = result.heavy_checks;
  s.instances_done = result.instances_done;
  s.replay_digest = result.replay_digest;
  ParseMetricsCsv(result.metrics_csv, &s);
  return s;
}

struct ChaosRepeat {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;
  sweep::SweepRunnerStats stats;
  std::vector<CampaignSummary> campaigns;
};

/// Builds, starts and settles one cluster of the campaign's shape per
/// campaign of a repeat, serially: the part of every campaign that
/// precedes its workload, timed on its own with the cluster workloads'
/// settle time.
double ChaosSetup(const chaos::CampaignConfig& config, uint64_t first_seed) {
  auto start = Clock::now();
  for (int i = 0; i < kCampaigns; ++i) {
    runtime::SimClusterOptions options = config.cluster;
    options.seed = first_seed + i;
    runtime::SimCluster cluster(options);
    cluster.Start();
    cluster.RunFor(kSettle);
  }
  return Since(start);
}

ChaosRepeat RunChaosRepeat(const chaos::CampaignConfig& config,
                           uint64_t first_seed, int workers, bool traced) {
  ChaosRepeat r;
  r.traced = traced;
  r.setup_s = ChaosSetup(config, first_seed);
  r.campaigns.resize(kCampaigns);
  std::vector<double> wall(kCampaigns, 0);
  sweep::SweepRunner runner({workers});
  auto start = Clock::now();
  runner.Run(kCampaigns, [&](size_t i) {
    // Traced repeats time every RunCampaign call on its worker.
    auto campaign_start = Clock::now();
    chaos::CampaignResult result =
        chaos::RunCampaign(first_seed + i, config);
    if (traced) wall[i] = Since(campaign_start);
    r.campaigns[i] = Summarize(result, wall[i]);
  });
  r.wall_s = Since(start);
  r.stats = runner.stats();
  return r;
}

Outcome RunChaosWorkload(const Args& args) {
  const chaos::CampaignConfig config = ChaosConfig();
  const uint64_t first_seed = args.seed * kCampaigns + 1;
  const int workers = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  std::vector<ChaosRepeat> repeats;
  auto start = Clock::now();
  double longest = 0;
  const size_t min_repeats = 2;
  while (repeats.size() < min_repeats ||
         Since(start) + longest <= args.seconds) {
    auto unit_start = Clock::now();
    bool traced = args.trace && repeats.size() % 2 == 0;
    repeats.push_back(RunChaosRepeat(config, first_seed, workers, traced));
    longest = std::max(longest, Since(unit_start));
    std::printf("repeat %zu: setup %.4f s, sweep %.3f s\n", repeats.size(),
                repeats.back().setup_s, repeats.back().wall_s);
  }

  Outcome out;
  const ChaosRepeat& first = repeats.front();
  std::vector<double> setup, wall, traced_wall;
  while (setup.size() + repeats.size() < kSetupSamples) {
    setup.push_back(ChaosSetup(
        config, (args.seed * kSetupSamples + setup.size()) * kCampaigns));
  }
  bool same = true;
  for (const ChaosRepeat& r : repeats) {
    setup.push_back(r.setup_s);
    (r.traced ? traced_wall : wall).push_back(r.wall_s);
    for (size_t i = 0; i < r.campaigns.size(); ++i) {
      const CampaignSummary& c = r.campaigns[i];
      same = same && c.replay_digest == first.campaigns[i].replay_digest &&
             c.events == first.campaigns[i].events;
      ++out.attempted;
      if (!c.ok) ++out.failed;
    }
  }
  std::printf("workload chaos seed=%llu: campaigns %llu..%llu, 2 shards x "
              "400 machines, %d workers, %zu repeats\n",
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(first_seed),
              static_cast<unsigned long long>(first_seed + kCampaigns - 1),
              workers, repeats.size());
  for (size_t i = 0; i < first.campaigns.size(); ++i) {
    const CampaignSummary& c = first.campaigns[i];
    std::printf("campaign seed=%llu %s events=%llu done_at=%.1f "
                "digest=%016llx\n",
                static_cast<unsigned long long>(first_seed + i),
                c.ok ? "PASS" : "FAIL",
                static_cast<unsigned long long>(c.events), c.completed_at,
                static_cast<unsigned long long>(c.replay_digest));
  }
  out.Check(same, "replay digests identical across repeats");
  out.Check(out.failed == 0, "every campaign completed without violations");

  const int total_apps = config.apps + config.planner_apps +
                         config.spillover_apps;
  const double unit_mb =
      static_cast<double>(runtime::SyntheticStage{}.unit.memory());
  const double cluster_mb =
      static_cast<double>(config.cluster.topology.machine_capacity.memory()) *
      config.cluster.topology.racks * config.cluster.topology.machines_per_rack;
  double busy_mb_s = 0;
  double capacity_mb_s = 0;
  int64_t apps_completed = 0;
  std::vector<double> done_at, p50, p99;
  uint64_t decisions = 0;
  for (const CampaignSummary& c : first.campaigns) {
    if (c.ok) apps_completed += total_apps;
    done_at.push_back(c.completed_at);
    busy_mb_s += static_cast<double>(c.instances_done) *
                 config.instance_duration * unit_mb;
    capacity_mb_s += cluster_mb * c.completed_at;
  }
  for (const ChaosRepeat& r : repeats) {
    if (r.traced) continue;
    for (const CampaignSummary& c : r.campaigns) {
      p50.push_back(c.decision_p50_us);
      p99.push_back(c.decision_p99_us);
      decisions += c.decisions;
    }
  }
  std::printf("decision samples (all campaigns, untraced repeats): %llu\n",
              static_cast<unsigned long long>(decisions));

  if (!args.trace) {
    out.Add("setup_s", Median(setup), "s");
    out.Add("wall_s", Median(wall), "s");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    out.Add("jobs_completed", static_cast<double>(apps_completed), "count");
    out.Add("job_turnaround_p50_vs", Median(done_at), "vs");
    out.Add("mem_util_pct", 100.0 * Ratio(busy_mb_s, capacity_mb_s), "%");
    return out;
  }

  // The serialize-on-send cost: one campaign run serially with the wire
  // round trip on, off, off, on, so that a linear drift in host speed
  // cancels out of the difference.
  chaos::CampaignConfig plain_wire = config;
  plain_wire.cluster.network.serialize_on_send = false;
  double sos_on = 0;
  double sos_off = 0;
  for (bool on : {true, false, false, true}) {
    auto sos_start = Clock::now();
    chaos::RunCampaign(first_seed, on ? config : plain_wire);
    (on ? sos_on : sos_off) += Since(sos_start) / 2;
  }

  const ChaosRepeat* t = &first;
  std::vector<double> campaign_s;
  std::map<std::string, double> v;
  double events = 0;
  for (const CampaignSummary& c : t->campaigns) {
    campaign_s.push_back(c.wall_s);
    events += static_cast<double>(c.events);
    v["chaos.heavy_checks"] += static_cast<double>(c.heavy_checks);
    v["master.requests"] += static_cast<double>(c.decisions);
    for (const auto& [name, value] : c.counters) {
      v[name] += static_cast<double>(value);
    }
  }
  double busy = 0;
  for (double s : campaign_s) busy += s;
  v["sched.pass_skip_ratio"] =
      Ratio(v["sched.passes_skipped"], v["sched.schedule_passes"]);
  v["sched.negfit_hit_ratio"] =
      Ratio(v["sched.negfit_cache_hits"],
            v["sched.negfit_cache_hits"] + v["sched.negfit_cache_misses"]);
  v["sim.events"] = events;
  v["sim.events_per_s"] = Ratio(events, busy);
  v["chaos.events"] = events;
  v["chaos.campaign_s_p50"] = Median(campaign_s);
  v["chaos.campaign_s_max"] = *std::max_element(campaign_s.begin(),
                                                campaign_s.end());
  v["sweep.busy_frac"] = Ratio(busy, t->stats.workers * t->wall_s);
  v["sweep.steals"] = static_cast<double>(t->stats.steals);
  v["wire.sos_overhead_s"] = sos_on - sos_off;
  v["master.request_us_p50"] = Median(p50);
  v["master.request_us_p99"] = Median(p99);
  v["bench.trace_overhead_s"] = Median(traced_wall) - Median(wall);
  std::printf("serialize_on_send: on %.3f s, off %.3f s (seed %llu)\n",
              sos_on, sos_off, static_cast<unsigned long long>(first_seed));
  PrintLayerTable({{"campaigns (sum of RunCampaign)", busy},
                   {"sweep idle (workers x wall - busy)",
                    t->stats.workers * t->wall_s - busy}},
                  t->stats.workers * t->wall_s);
  AddPerLayer(v, &out);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kError);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload contended|wide|chaos --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  // Window lengths were sized on a 4-core x86 host so that one repeat
  // takes a few seconds of wall time.
  static constexpr ClusterShape kContended{1000, 2, 900, 40.0, true};
  static constexpr ClusterShape kWide{5000, 1, 1000, 30.0, false};
  Outcome outcome;
  if (args.workload == "contended") {
    outcome = RunClusterWorkload(kContended, args);
  } else if (args.workload == "wide") {
    outcome = RunClusterWorkload(kWide, args);
  } else {
    outcome = RunChaosWorkload(args);
  }
  outcome.Print();
  return 0;
}
