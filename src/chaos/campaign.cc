#include "chaos/campaign.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string_view>

#include "common/logging.h"
#include "obs/exporters.h"
#include "runtime/synthetic_app.h"
#include "shard/messages.h"
#include "sweep/sweep_runner.h"
#include "trace/workloads.h"

namespace fuxi::chaos {

namespace {

uint64_t Fnv1a(uint64_t digest, std::string_view bytes) {
  for (char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 1099511628211ull;
  }
  return digest;
}

/// Folds the campaign's replay artifacts into the determinism
/// fingerprint compared across --jobs values. Everything folded here is
/// virtual-time-stamped and seed-determined; wall-clock-bearing
/// artifacts (chrome_trace) and the separately-compared metrics CSV
/// stay out.
uint64_t ReplayDigest(const CampaignResult& result) {
  uint64_t digest = 1469598103934665603ull;  // FNV-1a offset basis
  digest = Fnv1a(digest, result.fault_log);
  digest = Fnv1a(digest, result.trace);
  for (const Violation& v : result.violations) {
    std::ostringstream line;
    line << v.time << '|' << v.invariant << '|' << v.detail << '\n';
    digest = Fnv1a(digest, line.str());
  }
  std::ostringstream scalars;
  scalars << result.completed << '|' << result.completed_at << '|'
          << result.ended_at << '|' << result.events << '|'
          << result.instances_done << '|' << std::hex << result.state_hash;
  return Fnv1a(digest, scalars.str());
}

/// The standard SLO rule set every campaign runs under: one rule per
/// degradation mode the paper's operators watched for. Declarative
/// policy over the telemetry series the cluster publishes; with
/// telemetry disabled the rules are installed but never evaluated.
/// Thresholds are deliberately conservative — a firing is a
/// degradation signal, not a failure — and every series watched is
/// virtual-time deterministic, so the event log replays byte-identically
/// from a seed.
void InstallStandardSloRules(obs::SloWatchdog& watchdog) {
  obs::SloRule starvation;
  starvation.name = "demand-starvation";
  starvation.series = "master.request_backlog";
  starvation.kind = obs::SloRuleKind::kSustained;
  starvation.threshold = 1;
  starvation.window = 20;
  starvation.cooldown = 60;
  starvation.detail = "unsatisfied demand backlog sustained at the master";
  watchdog.AddRule(starvation);

  obs::SloRule growth;
  growth.name = "pending-queue-growth";
  growth.series = "master.request_backlog";
  growth.kind = obs::SloRuleKind::kRate;
  growth.threshold = 5;  // units per second, over the window
  growth.window = 10;
  growth.cooldown = 60;
  growth.detail = "demand backlog growing faster than placements drain it";
  watchdog.AddRule(growth);

  obs::SloRule overcommit;
  overcommit.name = "agent-overcommit";
  overcommit.series = "derived.agent.overcommit_units";
  overcommit.kind = obs::SloRuleKind::kThreshold;
  overcommit.threshold = 1;
  overcommit.cooldown = 30;
  overcommit.detail =
      "granted capacity above physical on some machine (double-grant "
      "symptom; the invariant monitor fails the run only after its "
      "sustained grace)";
  watchdog.AddRule(overcommit);

  obs::SloRule skew;
  skew.name = "shard-skew";
  skew.series = "derived.shard.imbalance";
  skew.kind = obs::SloRuleKind::kSustained;
  skew.threshold = 0.9;
  skew.window = 30;
  skew.cooldown = 60;
  skew.detail = "one shard nearly idle while another is loaded";
  watchdog.AddRule(skew);

  obs::SloRule head_block;
  head_block.name = "backfill-head-blocking";
  head_block.series = "planner.head_fence_wait_seconds";
  head_block.kind = obs::SloRuleKind::kThreshold;
  head_block.threshold = 120;
  head_block.cooldown = 120;
  head_block.detail =
      "the EASY head reservation has been fenced off for minutes";
  watchdog.AddRule(head_block);

  obs::SloRule decode_spike;
  decode_spike.name = "decode-drop-spike";
  decode_spike.series = "net.decode_drops";
  decode_spike.kind = obs::SloRuleKind::kRate;
  decode_spike.threshold = 10;  // drops per second, over the window
  decode_spike.window = 5;
  decode_spike.cooldown = 30;
  decode_spike.detail = "wire frames failing to decode in a burst";
  watchdog.AddRule(decode_spike);

  // The Figure 7 restore-bug symptom: a worker of a finished app still
  // holding a machine because failover dropped its grant record. The
  // campaign feeds the probe (it owns app liveness); a clean run kills
  // workers within a heartbeat of stage completion, so ten sustained
  // seconds of strays is a leak, not cleanup lag. Fires well inside the
  // invariant monitor's primary-gated orphan grace — the watchdog's
  // whole point is pre-violation warning.
  obs::SloRule strays;
  strays.name = "stray-process-leak";
  strays.series = "derived.cluster.stray_processes";
  strays.kind = obs::SloRuleKind::kSustained;
  strays.threshold = 1;
  strays.window = 10;
  strays.cooldown = 60;
  strays.detail = "workers of finished apps still running (grant leak)";
  watchdog.AddRule(strays);
}

}  // namespace

CampaignConfig::CampaignConfig() {
  cluster.topology.racks = 2;
  cluster.topology.machines_per_rack = 4;
  cluster.topology.machine_capacity = cluster::ResourceVector(400, 8192);
}

CampaignResult RunCampaign(uint64_t seed, const CampaignConfig& config) {
  CampaignResult result;
  result.seed = seed;

  runtime::SimClusterOptions options = config.cluster;
  options.seed = seed ^ 0x9E3779B97F4A7C15ull;
  if (config.seed_restore_bug) {
    options.master.failover_restore_grants = false;
  }
  // Multi-tenant campaigns: carve the (per-shard) capacity into a
  // tenant tree and configure it on every master up front. Workload
  // apps pick their leaf by app id, so retries and spillovers land on
  // the same tenant deterministically.
  trace::TenantPopulation tenant_population;
  if (config.tenants > 0) {
    trace::TenantPopulationOptions tenant_options;
    tenant_options.tenants = config.tenants;
    tenant_options.depth = config.tenant_depth;
    const int64_t machines =
        static_cast<int64_t>(options.topology.racks) *
        options.topology.machines_per_rack;
    const int64_t per_shard =
        std::max<int64_t>(1, machines / std::max(options.shards, 1));
    cluster::ResourceVector capacity;
    for (cluster::DimensionId d = 0; d < cluster::kMaxDimensions; ++d) {
      capacity.Set(d, options.topology.machine_capacity.Get(d) * per_shard);
    }
    tenant_population =
        trace::MakeTenantPopulation(seed, capacity, tenant_options);
    for (const trace::TenantPopulation::Node& node :
         tenant_population.nodes) {
      master::FuxiMasterOptions::TenantNode tenant;
      tenant.path = node.path;
      tenant.guarantee = node.guarantee;
      tenant.weight = node.weight;
      options.master.tenants.push_back(std::move(tenant));
    }
  }
  auto tenant_of =
      [&tenant_population](AppId app) -> const trace::TenantSpec* {
    if (tenant_population.tenants.empty()) return nullptr;
    return &tenant_population.tenants[static_cast<size_t>(app.value()) %
                                      tenant_population.tenants.size()];
  };
  runtime::SimCluster cluster(options);
  InstallStandardSloRules(cluster.obs().watchdog);
  InvariantMonitor monitor(&cluster, config.monitor);
  ChaosEngine engine(&cluster);

  cluster.Start();
  monitor.Start();
  cluster.RunFor(config.warmup);

  // Sharded campaigns submit through the federation router; the reply
  // names the shard that accepted the app, and the app's master follows
  // that shard's election lease from then on.
  const bool sharded = cluster.shard_count() > 1;
  net::Endpoint route_client;
  std::map<AppId, int32_t> assigned_shard;
  NodeId route_client_node;
  if (sharded) {
    route_client_node = cluster.AllocateNodeId();
    route_client.Handle<shard::RouteReplyRpc>(
        [&assigned_shard](const net::Envelope&,
                          const shard::RouteReplyRpc& rpc) {
          if (rpc.accepted) assigned_shard.emplace(rpc.app, rpc.shard);
        });
    cluster.network().Register(route_client_node, &route_client);
  }
  auto submit_via_router = [&cluster, &route_client_node,
                            &tenant_of](AppId app_id) {
    shard::RouteSubmitRpc submit;
    submit.app = app_id;
    if (const trace::TenantSpec* tenant = tenant_of(app_id)) {
      submit.tenant_path = tenant->path;
      submit.weight = tenant->weight;
    }
    submit.client = route_client_node;
    cluster.network().Send(route_client_node, cluster.router()->node(),
                           submit);
  };
  auto await_and_start = [&](runtime::SyntheticApp* app,
                             InvariantMonitor* mon) {
    double wait_deadline = cluster.sim().Now() + 60.0;
    double next_resubmit = cluster.sim().Now() + 10.0;
    while (cluster.sim().Now() < wait_deadline &&
           assigned_shard.count(app->app()) == 0) {
      cluster.RunFor(0.2);
      // The submit and the route reply are one-shot RPCs; a drop burst
      // can eat either. Resubmitting is safe: the router dedups
      // in-flight routing, and a duplicate acceptance on another shard
      // is benign (the app binds to whichever reply reaches us first).
      if (cluster.sim().Now() >= next_resubmit &&
          assigned_shard.count(app->app()) == 0) {
        submit_via_router(app->app());
        next_resubmit = cluster.sim().Now() + 10.0;
      }
    }
    auto it = assigned_shard.find(app->app());
    if (it == assigned_shard.end()) {
      mon->Report("router-assignment",
                  "router never bound app " +
                      std::to_string(app->app().value()) + " to a shard");
      return;
    }
    app->set_master_lock(cluster.shard_lock(it->second));
    app->MarkSubmitted(cluster.sim().Now());
    app->StartMaster();
  };

  // Submit the synthetic workload (one single-stage app per slot).
  std::vector<std::unique_ptr<runtime::SyntheticApp>> apps;
  for (int i = 0; i < config.apps; ++i) {
    AppId app_id(1 + i);
    runtime::SyntheticStage stage;
    stage.slot_id = 0;
    stage.workers = config.workers_per_app;
    stage.instances = config.instances_per_app;
    stage.instance_duration = config.instance_duration;
    apps.push_back(std::make_unique<runtime::SyntheticApp>(
        &cluster, app_id, std::vector<runtime::SyntheticStage>{stage},
        seed * 1315423911ull + static_cast<uint64_t>(i)));
    if (sharded) {
      submit_via_router(app_id);
      await_and_start(apps.back().get(), &monitor);
      continue;
    }
    master::SubmitAppRpc submit;
    submit.app = app_id;
    if (const trace::TenantSpec* tenant = tenant_of(app_id)) {
      submit.tenant_path = tenant->path;
      submit.weight = tenant->weight;
    }
    submit.client = cluster.AllocateNodeId();
    master::FuxiMaster* primary = cluster.primary();
    FUXI_CHECK(primary != nullptr);
    cluster.network().Send(submit.client, primary->node(), submit);
    cluster.RunFor(0.2);
    apps.back()->MarkSubmitted(cluster.sim().Now());
    apps.back()->StartMaster();
  }
  // fuxi::planner workload: gang apps whose single stage is an
  // all-or-nothing worker set with a lifetime estimate.
  for (int i = 0; i < config.planner_apps; ++i) {
    AppId app_id(2000 + i);
    runtime::SyntheticStage stage;
    stage.slot_id = 0;
    stage.workers = config.workers_per_app;
    stage.instances = config.instances_per_app;
    stage.instance_duration = config.instance_duration;
    int64_t waves =
        (config.instances_per_app + config.workers_per_app - 1) /
        std::max<int64_t>(config.workers_per_app, 1);
    stage.plan.estimated_seconds =
        config.instance_duration * static_cast<double>(waves);
    stage.plan.gang_id = 9000 + static_cast<uint64_t>(i);
    stage.plan.gang_size = 1;
    apps.push_back(std::make_unique<runtime::SyntheticApp>(
        &cluster, app_id, std::vector<runtime::SyntheticStage>{stage},
        seed * 2246822519ull + static_cast<uint64_t>(i)));
    if (sharded) {
      submit_via_router(app_id);
      await_and_start(apps.back().get(), &monitor);
      continue;
    }
    master::SubmitAppRpc submit;
    submit.app = app_id;
    if (const trace::TenantSpec* tenant = tenant_of(app_id)) {
      submit.tenant_path = tenant->path;
      submit.weight = tenant->weight;
    }
    submit.client = cluster.AllocateNodeId();
    master::FuxiMaster* primary = cluster.primary();
    FUXI_CHECK(primary != nullptr);
    cluster.network().Send(submit.client, primary->node(), submit);
    cluster.RunFor(0.2);
    apps.back()->MarkSubmitted(cluster.sim().Now());
    apps.back()->StartMaster();
  }
  // The spillover wave: apps whose submissions fire in the middle of
  // the fault window, while shards crash-loop and directory replicas
  // are cut — their routing must spill around the broken fault domains.
  size_t first_wave = apps.size();
  if (sharded && config.spillover_apps > 0) {
    for (int j = 0; j < config.spillover_apps; ++j) {
      AppId app_id(1000 + j);
      runtime::SyntheticStage stage;
      stage.slot_id = 0;
      stage.workers = config.workers_per_app;
      stage.instances = config.instances_per_app;
      stage.instance_duration = config.instance_duration;
      apps.push_back(std::make_unique<runtime::SyntheticApp>(
          &cluster, app_id, std::vector<runtime::SyntheticStage>{stage},
          seed * 2654435761ull + static_cast<uint64_t>(j)));
      cluster.sim().ScheduleAt(
          config.plan.start + config.plan.duration * 0.5,
          [&submit_via_router, app_id] { submit_via_router(app_id); });
    }
  }
  monitor.set_app_liveness([&apps](AppId app) {
    for (const auto& synthetic : apps) {
      if (synthetic->app() == app) return !synthetic->finished();
    }
    return false;
  });
  // Campaign-scoped telemetry probe: only the campaign knows which apps
  // are finished, so the stray-process series (workers of finished apps
  // still alive — the restore-bug symptom) is fed from here rather than
  // from SimCluster's built-in probes. Purely virtual-time state, so
  // the series replays byte-identically from the seed.
  cluster.obs().telemetry.AddProbe(
      "derived.cluster.stray_processes", [&cluster, &apps] {
        std::set<AppId> finished;
        for (const auto& synthetic : apps) {
          if (synthetic->finished()) finished.insert(synthetic->app());
        }
        double strays = 0;
        if (finished.empty()) return strays;
        for (const cluster::Machine& machine :
             cluster.topology().machines()) {
          for (const agent::Process* process :
               cluster.host(machine.id)->Alive()) {
            if (finished.count(process->app)) strays += 1;
          }
        }
        return strays;
      });
  // Multi-tenant campaigns watch for fair-share starvation: a leaf
  // tenant that sits below its guarantee with queued demand should be
  // healed by preemption within a couple of repair rounds, so a
  // *sustained* deficit is a starved tenant. The rule only exists when
  // tenants are configured — legacy telemetry stays byte-identical.
  if (config.tenants > 0) {
    cluster.obs().telemetry.AddProbe(
        "derived.fairshare.starved_tenants", [&cluster] {
          double starved = 0;
          for (int m = 0; m < cluster.master_count(); ++m) {
            const resource::Scheduler* scheduler =
                cluster.master(m)->scheduler();
            if (scheduler == nullptr) continue;
            for (const resource::FairShareTree::Node* node :
                 scheduler->fairshare().Nodes()) {
              if (node->children.empty() &&
                  scheduler->fairshare().HasDeficit(*node)) {
                starved += 1;
              }
            }
          }
          return starved;
        });
    obs::SloRule starvation;
    starvation.name = "tenant-starvation";
    starvation.series = "derived.fairshare.starved_tenants";
    starvation.kind = obs::SloRuleKind::kSustained;
    starvation.threshold = 1;
    starvation.window = 60;
    starvation.cooldown = 120;
    starvation.detail =
        "leaf tenants stuck below their guarantee with queued demand";
    cluster.obs().watchdog.AddRule(starvation);
  }

  auto all_finished = [&apps] {
    for (const auto& synthetic : apps) {
      if (!synthetic->finished()) return false;
    }
    return true;
  };
  auto instances_done = [&apps] {
    int64_t total = 0;
    for (const auto& synthetic : apps) {
      total += synthetic->stats().instances_done;
    }
    return total;
  };

  // Periodic replay-witness digest lines.
  std::ostringstream trace;
  trace << "campaign seed=" << seed << " apps=" << config.apps
        << " machines=" << cluster.topology().machine_count() << "\n";
  bool sampling = true;
  std::function<void()> sample = [&] {
    if (!sampling) return;
    trace << "t=" << cluster.sim().Now() << " events="
          << cluster.sim().ExecutedEvents() << " done=" << instances_done()
          << " violations=" << monitor.violations().size() << " digest="
          << std::hex << monitor.state_hash() << std::dec << "\n";
    cluster.sim().Schedule(config.digest_interval, sample);
  };
  cluster.sim().Schedule(config.digest_interval, sample);

  engine.ScheduleRandomCampaign(seed, config.plan);
  cluster.RunUntil(config.plan.start + config.plan.duration);
  engine.HealEverything();

  // Bind the spillover wave: their submissions fired mid-window, so by
  // now the router has (or soon will have) spilled them onto whichever
  // shards stayed healthy; start their app masters on those shards.
  for (size_t i = first_wave; i < apps.size(); ++i) {
    await_and_start(apps[i].get(), &monitor);
  }

  // Liveness: once faults cease, every app must finish.
  double deadline = cluster.sim().Now() + config.settle_timeout;
  while (cluster.sim().Now() < deadline && !all_finished()) {
    cluster.RunFor(1.0);
  }
  if (all_finished()) {
    result.completed = true;
    result.completed_at = cluster.sim().Now();
  } else {
    std::ostringstream detail;
    detail << "jobs incomplete " << config.settle_timeout
           << "s after faults ceased:";
    for (const auto& synthetic : apps) {
      if (!synthetic->finished()) {
        detail << " app" << synthetic->app().value() << "="
               << synthetic->stats().instances_done << "/"
               << config.instances_per_app;
      }
    }
    monitor.Report("eventual-completion", detail.str());
  }

  // Quiesce: let sustained trackers and the final reconcile fire/clear.
  cluster.RunFor(config.cooldown);
  monitor.CheckNow();
  sampling = false;

  result.ended_at = cluster.sim().Now();
  result.events = cluster.sim().ExecutedEvents();
  result.heavy_checks = monitor.heavy_checks_run();
  result.state_hash = monitor.state_hash();
  result.instances_done = instances_done();
  result.violations = monitor.violations();
  result.fault_log = engine.LogDump();
  result.trace = trace.str();
  result.metrics_csv = obs::MetricsToCsv(cluster.obs().metrics);
  if (cluster.obs().telemetry.active() &&
      cluster.obs().telemetry.samples_taken() > 0) {
    result.telemetry_json = obs::ExportTelemetryJson(
        cluster.obs().telemetry, cluster.obs().watchdog);
    result.health_events = cluster.obs().watchdog.events();
  }
  if (!result.ok()) {
    std::ostringstream residual;
    for (size_t m = 0; m < cluster.topology().machine_count(); ++m) {
      MachineId machine(static_cast<int64_t>(m));
      const agent::FuxiAgent* machine_agent = cluster.agent(machine);
      residual << "m" << m << (cluster.machine_halted(machine) ? " HALTED" : "")
               << (machine_agent->is_alive() ? "" : " agent-dead")
               << " granted=" << machine_agent->TotalGrantedCapacity().ToString();
      for (const agent::Process* process : cluster.host(machine)->Alive()) {
        residual << " [w" << process->id.value() << " app"
                 << process->app.value() << "/s" << process->slot_id
                 << " am=" << process->owner_am.value()
                 << " since=" << process->started_at << "]";
      }
      residual << "\n";
    }
    result.residual_state = residual.str();
    result.chrome_trace = monitor.trace_dump();
    result.audit_json = monitor.audit_dump();
  } else if (config.dump_audit) {
    // PASS replays can still carry the decision audit (`fuxi explain`
    // input); audit_json is not folded into replay_digest, so this
    // cannot perturb the determinism comparisons.
    result.audit_json = obs::ExportAuditJson(cluster.obs().audit.Snapshot());
  }
  monitor.Stop();
  result.replay_digest = ReplayDigest(result);
  return result;
}

CampaignConfig ShardedCampaignConfig(int shards) {
  CampaignConfig config;
  config.cluster.shards = shards;
  config.cluster.topology.racks = 4;
  config.cluster.topology.machines_per_rack = 4;
  config.apps = std::max(2, shards);
  config.spillover_apps = 2;
  config.plan.episodes = 8;
  // A shard crash-loop can swallow an app's FinishApp: the recovering
  // primary resurrects the app from its checkpoint and only repairs it
  // via the silent-AM restart (app_master_timeout, 20s) — the restarted
  // AM re-finishes and releases the stray workers. The orphan grace
  // must cover that whole repair path, not just the master→agent
  // revocation hop the unsharded default assumes.
  config.monitor.orphan_grace =
      config.cluster.master.app_master_timeout + 10.0;
  return config;
}

std::string FormatCampaignFailure(const CampaignResult& result) {
  std::ostringstream out;
  out << "chaos campaign " << (result.ok() ? "replay" : "FAILED")
      << " (seed=" << result.seed
      << ", completed=" << (result.completed ? "yes" : "no")
      << ", events=" << result.events << ", state_hash=" << std::hex
      << result.state_hash << std::dec << ")\n";
  out << "-- violations (" << result.violations.size() << ") --\n";
  for (const Violation& v : result.violations) {
    out << "t=" << v.time << " [" << v.invariant << "] " << v.detail << "\n";
  }
  out << "-- fault schedule (replays byte-identically from seed "
      << result.seed << ") --\n"
      << result.fault_log;
  out << "-- event trace --\n" << result.trace;
  if (!result.health_events.empty()) {
    // Virtual-time stamped and rule-deterministic, so this section
    // replays byte-identically from the seed — the watchdog saw the
    // degradation before the invariant monitor declared failure.
    out << "-- watchdog health events (" << result.health_events.size()
        << ") --\n";
    for (const obs::HealthEvent& ev : result.health_events) {
      out << "t=" << ev.time << " [" << ev.rule << "] " << ev.series << "="
          << ev.value << " threshold=" << ev.threshold << "\n";
    }
  }
  if (!result.residual_state.empty()) {
    out << "-- residual state --\n" << result.residual_state;
  }
  if (!result.chrome_trace.empty()) {
    // Report the span count, not the byte size: wall-clock annotations
    // inside the JSON vary in width across runs, and this dump must
    // stay byte-identical on same-seed replay.
    size_t spans = 0;
    for (size_t pos = result.chrome_trace.find("\"ph\":");
         pos != std::string::npos;
         pos = result.chrome_trace.find("\"ph\":", pos + 1)) {
      ++spans;
    }
    out << "-- flight recorder --\n"
        << "chrome_trace: " << spans
        << " spans of trace_event JSON captured at the first violation "
           "(traceEvents of the incident bundle: open in Perfetto, or "
           "run fuxi spans)\n";
  }
  if (!result.audit_json.empty()) {
    size_t records = 0;
    for (size_t pos = result.audit_json.find("\"kind\":");
         pos != std::string::npos;
         pos = result.audit_json.find("\"kind\":", pos + 1)) {
      ++records;
    }
    out << "-- decision audit --\n"
        << "audit_json: " << records
        << " decision records captured at the first violation "
           "(auditRecords of the incident bundle: run fuxi explain)\n";
  }
  return out.str();
}

Json IncidentJson(const CampaignResult& result) {
  // The sections are re-parsed from the result's strings: they are
  // captured as text at the violation and only bundled at dump time.
  auto parse = [](const std::string& text) {
    Result<Json> parsed = Json::Parse(text);
    FUXI_CHECK(parsed.ok()) << parsed.status().message();
    return std::move(parsed).value();
  };
  Json doc = Json::MakeObject();
  if (!result.chrome_trace.empty()) {
    Json trace = parse(result.chrome_trace);
    doc["traceEvents"] = *trace.Find("traceEvents");
    doc["displayTimeUnit"] = *trace.Find("displayTimeUnit");
  }
  if (!result.audit_json.empty()) {
    doc["auditRecords"] = *parse(result.audit_json).Find("auditRecords");
  }
  if (!result.telemetry_json.empty()) {
    doc["telemetry"] = parse(result.telemetry_json);
  }
  if (!result.metrics_csv.empty()) doc["metrics"] = result.metrics_csv;
  return doc;
}

SweepResult RunSeedSweep(uint64_t first_seed, int count,
                         const CampaignConfig& config, int jobs) {
  SweepResult sweep;
  if (count <= 0) return sweep;
  // Fan the seeds out; every campaign owns its own SimCluster, so the
  // only cross-worker state is the index-addressed results vector each
  // worker writes exactly one slot of.
  ::fuxi::sweep::SweepRunner runner({jobs});
  std::vector<CampaignResult> results(static_cast<size_t>(count));
  runner.Run(static_cast<size_t>(count),
             [&results, first_seed, &config](size_t i) {
               results[i] =
                   RunCampaign(first_seed + static_cast<uint64_t>(i), config);
             });
  sweep.jobs = runner.jobs();
  sweep.wall_seconds = runner.stats().wall_seconds;
  obs::MetricsRegistry sweep_metrics;
  ::fuxi::sweep::ExportStats(runner.stats(), &sweep_metrics);
  sweep.sweep_metrics_csv = obs::MetricsToCsv(sweep_metrics);
  // Deterministic seed-ordered reduction: identical for every jobs
  // value, including the order of failing seeds and retained failures.
  for (CampaignResult& result : results) {
    sweep.digests.push_back(result.replay_digest);
    if (result.ok()) {
      ++sweep.passed;
    } else {
      ++sweep.failed;
      sweep.failing_seeds.push_back(result.seed);
      sweep.failures.push_back(std::move(result));
    }
  }
  return sweep;
}

}  // namespace fuxi::chaos
