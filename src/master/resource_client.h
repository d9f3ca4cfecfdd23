#ifndef FUXI_MASTER_RESOURCE_CLIENT_H_
#define FUXI_MASTER_RESOURCE_CLIENT_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "common/backoff.h"
#include "common/ids.h"
#include "coord/lock_service.h"
#include "master/messages.h"
#include "net/network.h"
#include "obs/metrics_registry.h"
#include "resource/delta_channel.h"
#include "resource/protocol.h"
#include "sim/simulator.h"

namespace fuxi::master {

/// The application-master side of the incremental resource protocol.
/// An application states *desired* unit counts; the client converts
/// changes into stamped deltas ("publish resource demands in
/// incremental fashion", §3.1), tracks grants as the master streams
/// them, survives FuxiMaster failovers by re-sending full state to the
/// new primary, and runs the periodic full-state safety sync that also
/// doubles as the application-master heartbeat.
struct ResourceClientOptions {
  double full_sync_interval = 8.0;  ///< periodic reconcile/heartbeat
  /// Retry schedule when no primary is electable (and for the recovery
  /// resync loop). The default — fixed 1 s, multiplier 1, zero jitter —
  /// reproduces the legacy fixed-interval loop exactly; the golden
  /// chaos replays pin those retry event times, so do not change it for
  /// single-master clusters. The submission router overrides it with a
  /// genuinely exponential, jittered policy.
  BackoffPolicy retry_backoff{1.0, 1.0, 30.0, 0.0};
  /// Lease whose holder is "the master" for this client. Empty means
  /// FuxiMaster::kMasterLock (single-master clusters); sharded clusters
  /// bind each application to its shard's election lock.
  std::string master_lock;
};

class ResourceClient {
 public:
  using Options = ResourceClientOptions;

  /// Called for every grant change: `delta` > 0 means `count` new units
  /// on `machine`; < 0 means revocation, with `reason` explaining why.
  using GrantCallback = std::function<void(
      uint32_t slot, MachineId machine, int64_t delta,
      resource::RevocationReason reason)>;

  /// `incarnation` identifies this AM process instance; a restarted
  /// application master must pass a larger value so FuxiMaster resets
  /// the delta channels.
  ResourceClient(sim::Simulator* simulator, net::Network* network,
                 coord::LockService* locks, NodeId self, AppId app,
                 Options options = Options(), uint64_t incarnation = 1);
  /// Cancels the pending timers: their callbacks point at this client.
  ~ResourceClient();
  ResourceClient(const ResourceClient&) = delete;
  ResourceClient& operator=(const ResourceClient&) = delete;

  /// Registers protocol handlers on the owning actor's endpoint and
  /// starts the periodic sync. Call once.
  void Start(net::Endpoint* endpoint);

  /// Failover start (restarted application master, §4.3.1): first
  /// recovers the granted-resource view from FuxiMaster (ResyncRpc →
  /// full grant snapshot), then calls `on_snapshot` so the application
  /// can re-declare its units and desired counts; only then does normal
  /// traffic flow.
  void StartRecovering(net::Endpoint* endpoint,
                       std::function<void()> on_snapshot);

  /// Stops all timers (application master shutting down or crashing).
  void Stop();

  // --- demand API -------------------------------------------------------

  /// Declares (or redefines) a ScheduleUnit. Must precede SetDesired
  /// for that slot.
  void DefineUnit(const resource::ScheduleUnitDef& def);

  /// Sets the absolute desired number of units for `slot`
  /// (granted + outstanding). The client sends only the change.
  void SetDesired(uint32_t slot, int64_t desired_total);
  void AddDesired(uint32_t slot, int64_t delta);

  /// Sets the absolute preferred count on a machine or rack.
  void SetLocalityHint(uint32_t slot, resource::LocalityLevel level,
                       const std::string& value, int64_t count);

  /// Adds a machine to the slot's avoid list (bad node).
  void Avoid(uint32_t slot, const std::string& hostname);

  /// Attaches planner metadata (fuxi::planner) to the slot: lifetime
  /// estimate, advance-reservation window, gang membership. Sent as an
  /// absolute blob with the next delta and re-asserted on full syncs.
  void SetPlan(uint32_t slot, const resource::PlanningHints& plan);

  /// Returns `count` granted units on `machine` (workers finished).
  /// Also lowers the desired total by `count`: a returned unit is work
  /// completed, not work to be rescheduled.
  void Release(uint32_t slot, MachineId machine, int64_t count);

  void set_grant_callback(GrantCallback callback) {
    grant_callback_ = std::move(callback);
  }

  // --- views --------------------------------------------------------------

  int64_t desired(uint32_t slot) const;
  int64_t granted_total(uint32_t slot) const;
  int64_t granted(uint32_t slot, MachineId machine) const;
  /// granted units per machine for a slot.
  const std::map<MachineId, int64_t>& grants_by_machine(uint32_t slot) const;

  AppId app() const { return app_; }
  NodeId master() const { return known_master_; }
  uint64_t full_syncs_sent() const { return full_syncs_sent_; }
  uint64_t deltas_sent() const { return deltas_sent_; }
  uint64_t retries_scheduled() const { return retries_scheduled_; }

  /// Optional: export retry/backoff counters ("client.resync_retries",
  /// "client.no_master_retries") into the cluster registry.
  void set_metrics(obs::MetricsRegistry* metrics) {
    if (metrics == nullptr) return;
    resync_retry_counter_ = metrics->GetCounter("client.resync_retries");
    no_master_retry_counter_ =
        metrics->GetCounter("client.no_master_retries");
  }

  /// Forces the next flush to carry full state (used by tests and by
  /// restarted application masters recovering their view).
  void ForceFullSync() {
    need_full_sync_ = true;
    Flush();
  }

 private:
  struct SlotState {
    resource::ScheduleUnitDef def;
    int64_t desired = 0;
    std::map<MachineId, int64_t> granted;
    int64_t granted_total = 0;
    /// Absolute locality preferences, keyed by (level, name).
    std::map<std::pair<int, std::string>, int64_t> hints;
    std::set<std::string> avoid;
    resource::PlanningHints plan;
  };

  void Flush();
  void SendRecoveryResync();
  void OnGrant(const GrantRpc& rpc);
  void ApplyGrantMessage(const resource::GrantMessage& msg, bool is_full);
  void PeriodicSync();
  resource::RequestMessage BuildFullState() const;
  NodeId CurrentMaster() const;

  sim::Simulator* sim_;
  net::Network* network_;
  coord::LockService* locks_;
  NodeId self_;
  AppId app_;
  Options options_;
  std::string master_lock_;  ///< resolved lease name (options or default)

  bool running_ = false;
  bool recovering_ = false;
  std::function<void()> on_snapshot_;
  uint64_t incarnation_ = 1;
  uint64_t life_ = 0;
  NodeId known_master_;
  bool need_full_sync_ = true;  ///< first contact is always a full state
  bool retry_scheduled_ = false;

  resource::DeltaSender<resource::RequestMessage> sender_;
  resource::DeltaReceiver<resource::GrantMessage> grant_receiver_;
  resource::RequestMessage pending_;
  bool pending_dirty_ = false;

  std::map<uint32_t, SlotState> slots_;
  GrantCallback grant_callback_;
  uint64_t full_syncs_sent_ = 0;
  uint64_t deltas_sent_ = 0;

  Backoff resync_backoff_;
  Backoff flush_backoff_;
  /// The pending timer of each kind; Stop() and the destructor cancel
  /// them so no callback outlives the client.
  sim::EventHandle sync_timer_;
  sim::EventHandle resync_timer_;
  sim::EventHandle flush_retry_timer_;
  uint64_t retries_scheduled_ = 0;
  obs::Counter* resync_retry_counter_ = nullptr;
  obs::Counter* no_master_retry_counter_ = nullptr;
};

}  // namespace fuxi::master

#endif  // FUXI_MASTER_RESOURCE_CLIENT_H_
