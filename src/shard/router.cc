#include "shard/router.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace fuxi::shard {

SubmissionRouter::SubmissionRouter(sim::Simulator* simulator,
                                   net::Network* network, NodeId self,
                                   RouterOptions options)
    : sim::Actor(simulator),
      network_(network),
      self_(self),
      options_(std::move(options)) {
  FUXI_CHECK(options_.shards >= 1);
  endpoint_.Handle<RouteSubmitRpc>(
      [this](const net::Envelope&, const RouteSubmitRpc& rpc) {
        OnRouteSubmit(rpc);
      });
  endpoint_.Handle<master::SubmitAppReplyRpc>(
      [this](const net::Envelope& env, const master::SubmitAppReplyRpc& rpc) {
        OnSubmitReply(env, rpc);
      });
  endpoint_.Handle<ShardDirectoryReplyRpc>(
      [this](const net::Envelope&, const ShardDirectoryReplyRpc& rpc) {
        OnDirectoryReply(rpc);
      });
}

void SubmissionRouter::Start() {
  network_->Register(self_, &endpoint_);
  last_directory_reply_ = Now();
  RefreshDirectory();
}

void SubmissionRouter::set_observability(obs::Observability* obs) {
  obs_ = obs;
  if (obs != nullptr) {
    submits_counter_ = obs->metrics.GetCounter("router.submits");
    spillovers_counter_ = obs->metrics.GetCounter("router.spillovers");
    retries_counter_ = obs->metrics.GetCounter("router.retries");
    failovers_counter_ = obs->metrics.GetCounter("router.directory_failovers");
  } else {
    submits_counter_ = spillovers_counter_ = retries_counter_ =
        failovers_counter_ = nullptr;
  }
}

ShardEntry SubmissionRouter::entry(int32_t shard) const {
  auto it = table_.find(shard);
  return it == table_.end() ? ShardEntry{} : it->second;
}

void SubmissionRouter::RefreshDirectory() {
  if (!options_.directory.empty()) {
    // Fail over when the active replica has been silent too long: a
    // partitioned replica answers nothing, so lookups stall until the
    // router rotates to the next one.
    if (Now() - last_directory_reply_ > options_.directory_timeout) {
      active_replica_ = (active_replica_ + 1) % options_.directory.size();
      last_directory_reply_ = Now();
      ++directory_failovers_;
      if (failovers_counter_ != nullptr) failovers_counter_->Add();
      FUXI_LOG(kInfo) << "router: directory replica silent, failing over to "
                      << options_.directory[active_replica_].value();
    }
    ShardLookupRpc lookup;
    lookup.reply_to = self_;
    lookup.request_id = next_request_id_++;
    network_->Send(self_, options_.directory[active_replica_], lookup);
  }
  After(options_.directory_refresh, [this] { RefreshDirectory(); });
}

void SubmissionRouter::OnDirectoryReply(const ShardDirectoryReplyRpc& rpc) {
  last_directory_reply_ = Now();
  for (const ShardEntry& e : rpc.entries) {
    ShardEntry& stored = table_[e.shard];
    // The same generation fence the replicas apply: never let one
    // replica's stale row roll back a fresher row another replica (or
    // an earlier reply) already gave us.
    if (e.generation < stored.generation) continue;
    stored = e;
  }
}

bool SubmissionRouter::Healthy(int32_t shard) const {
  auto it = table_.find(shard);
  if (it == table_.end()) return false;
  const ShardEntry& e = it->second;
  if (!e.primary.valid()) return false;
  return Now() - e.updated_at <= options_.status_stale_after;
}

bool SubmissionRouter::Saturated(const ShardEntry& e) const {
  if (e.machines_online <= 0) return true;
  for (cluster::DimensionId dim :
       {cluster::kCpu, cluster::kMemory}) {
    int64_t total = e.total.Get(dim);
    if (total <= 0) continue;
    int64_t free = total - e.granted.Get(dim);
    if (static_cast<double>(free) <
        options_.spill_free_fraction * static_cast<double>(total)) {
      return true;
    }
  }
  return false;
}

int32_t SubmissionRouter::PickShard(AppId app, std::string* why) const {
  int32_t home = static_cast<int32_t>(shard_of(app));
  bool home_healthy = Healthy(home);
  if (home_healthy && !Saturated(table_.at(home))) {
    *why = "home";
    return home;
  }
  // Spill: the healthiest other shard by free-CPU share (deterministic
  // tie-break on shard id). A saturated spill target is still better
  // than an unroutable home, so saturation only orders candidates here.
  int32_t best = -1;
  double best_free = -1;
  for (int32_t shard = 0; shard < options_.shards; ++shard) {
    if (shard == home || !Healthy(shard)) continue;
    const ShardEntry& e = table_.at(shard);
    int64_t total = e.total.cpu();
    double free_share =
        total > 0 ? static_cast<double>(total - e.granted.cpu()) /
                        static_cast<double>(total)
                  : 0;
    if (free_share > best_free) {
      best_free = free_share;
      best = shard;
    }
  }
  if (best >= 0) {
    *why = home_healthy ? "spill:saturated" : "spill:failover";
    return best;
  }
  if (home_healthy) {
    // Saturated home, no spill target: keep submitting home rather
    // than stalling — the master queues demand it cannot yet place.
    *why = "home:saturated";
    return home;
  }
  *why = "unroutable";
  return -1;
}

void SubmissionRouter::AuditRoute(AppId app, int32_t shard,
                                  const std::string& why) {
  if (obs_ == nullptr) return;
  obs::DecisionRecord r;
  r.kind = obs::DecisionKind::kRoute;
  r.app = app.value();
  r.units = shard;
  r.note = StrFormat("home=%d %s", shard_of(app), why.c_str());
  obs_->audit.Commit(std::move(r));
}

void SubmissionRouter::OnRouteSubmit(const RouteSubmitRpc& rpc) {
  auto it = pending_.find(rpc.app);
  if (it != pending_.end()) return;  // duplicate: routing is in progress
  Pending pending(options_.submit_backoff,
                  options_.seed ^ static_cast<uint64_t>(rpc.app.value()));
  pending.tenant_path = rpc.tenant_path;
  pending.weight = rpc.weight;
  pending.description = rpc.description;
  pending.client = rpc.client;
  pending_.emplace(rpc.app, std::move(pending));
  TrySubmit(rpc.app);
}

void SubmissionRouter::TrySubmit(AppId app) {
  auto it = pending_.find(app);
  if (it == pending_.end()) return;
  Pending& p = it->second;
  uint64_t epoch = ++p.epoch;
  std::string why;
  int32_t shard = PickShard(app, &why);
  AuditRoute(app, shard, why);
  if (shard >= 0) {
    const ShardEntry& e = table_.at(shard);
    master::SubmitAppRpc submit;
    submit.app = app;
    submit.tenant_path = p.tenant_path;
    submit.weight = p.weight;
    submit.description = p.description;
    submit.client = self_;  // the reply comes back here, not to the app
    network_->Send(self_, e.primary, submit);
    p.shard = shard;
    ++submits_;
    if (submits_counter_ != nullptr) submits_counter_->Add();
    if (shard != static_cast<int32_t>(shard_of(app))) {
      ++spillovers_;
      if (spillovers_counter_ != nullptr) spillovers_counter_->Add();
    }
  }
  // Arm the retry regardless: an unroutable app re-picks once the
  // directory recovers, and an in-flight submission to a dying primary
  // resubmits after the backoff. Replies cancel via the epoch check.
  After(p.backoff.NextDelay(), [this, app, epoch] {
    auto retry = pending_.find(app);
    if (retry == pending_.end() || retry->second.epoch != epoch) return;
    ++retries_;
    if (retries_counter_ != nullptr) retries_counter_->Add();
    TrySubmit(app);
  });
}

void SubmissionRouter::OnSubmitReply(const net::Envelope& env,
                                     const master::SubmitAppReplyRpc& rpc) {
  auto it = pending_.find(rpc.app);
  if (it == pending_.end()) return;  // a slower duplicate acceptance
  Pending& p = it->second;
  // Map the accepting master back to its shard: retries may have raced
  // submissions to two shards, and the app must bind to the one that
  // actually answered (a stale registration on the other shard is
  // benign — it never receives demand).
  int32_t shard = p.shard;
  for (const auto& [id, entry] : table_) {
    if (entry.primary == env.from) {
      shard = id;
      break;
    }
  }
  RouteReplyRpc reply;
  reply.app = rpc.app;
  reply.shard = shard;
  reply.accepted = rpc.accepted;
  reply.error = rpc.error;
  network_->Send(self_, p.client, reply);
  pending_.erase(it);
}

}  // namespace fuxi::shard
