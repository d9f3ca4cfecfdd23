#ifndef FUXI_NET_NETWORK_H_
#define FUXI_NET_NETWORK_H_

#include <any>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <typeinfo>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"

#include "common/ids.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "wire/wire.h"

namespace fuxi::net {

namespace internal {
inline std::atomic<uint32_t> next_payload_slot{0};
}  // namespace internal

/// Dense process-wide integer id of payload type T, assigned on first
/// use (a function-local static, so concurrent clusters on sweep threads
/// race-free agree on it). Endpoints index their handlers by it and the
/// tracer caches span names by it, so dispatch never hashes a type name.
/// Slot numbers follow first-use order, which threads may vary; nothing
/// observable depends on them.
template <typename T>
uint32_t PayloadSlot() {
  static const uint32_t slot = internal::next_payload_slot.fetch_add(1);
  return slot;
}

inline constexpr uint32_t kNoPayloadSlot = UINT32_MAX;

/// A delivered message with its routing metadata.
struct Envelope {
  NodeId from;
  NodeId to;
  uint64_t wire_seq = 0;   ///< global send order, for debugging
  double sent_at = 0;      ///< virtual send time
  size_t wire_bytes = 0;   ///< exact encoded frame size (measured at Send)
  uint64_t span = 0;       ///< causal trace span of this copy (0 = untraced)
  /// PayloadSlot of the payload's type, stamped by Network::Send. An
  /// unstamped envelope matches no handler and counts as unhandled.
  uint32_t type_slot = kNoPayloadSlot;
  std::any payload;
};

/// A network attachment point for one simulated process. Handlers are
/// registered per payload type; unhandled payload types are counted
/// (in aggregate and per type), logged once per type, and dropped
/// (like an unknown RPC method).
class Endpoint {
 public:
  /// Registers a handler for messages whose payload holds a T. Checks
  /// that no handler is already registered for T: silently shadowing a
  /// live handler is a wiring bug. A component that deliberately takes
  /// over a payload type on a reused endpoint (e.g. a restarted
  /// application master's fresh ResourceClient) uses ReplaceHandle.
  template <typename T>
  void Handle(std::function<void(const Envelope&, const T&)> fn) {
    std::unique_ptr<Handler>& handler = HandlerFor(PayloadSlot<T>());
    FUXI_CHECK(handler == nullptr)
        << "duplicate handler registration for payload type "
        << Demangle(typeid(T).name())
        << " (use ReplaceHandle for deliberate takeover)";
    handler = std::make_unique<Handler>(Wrap(std::move(fn)));
  }

  /// Registers or replaces the handler for T (deliberate takeover).
  template <typename T>
  void ReplaceHandle(std::function<void(const Envelope&, const T&)> fn) {
    std::unique_ptr<Handler>& handler = HandlerFor(PayloadSlot<T>());
    if (handler == nullptr) {
      handler = std::make_unique<Handler>(Wrap(std::move(fn)));
    } else {
      *handler = Wrap(std::move(fn));
    }
  }

  /// Dispatches one envelope. Returns false when no handler matched.
  bool Dispatch(const Envelope& env) {
    // Held by pointer: a handler may register more handlers, which can
    // grow handlers_ while it runs.
    Handler* handler = env.type_slot < handlers_.size()
                           ? handlers_[env.type_slot].get()
                           : nullptr;
    if (handler == nullptr) {
      ++unhandled_;
      UnhandledType& per_type = unhandled_by_type_[env.type_slot];
      per_type.type = &env.payload.type();
      if (++per_type.count == 1) {
        FUXI_LOG(kWarning)
            << "endpoint at node " << env.to.value()
            << " has no handler for payload type "
            << Demangle(env.payload.type().name())
            << " (further drops of this type counted silently)";
      }
      return false;
    }
    (*handler)(env);
    return true;
  }

  uint64_t unhandled() const { return unhandled_; }

  /// Per-payload-type unhandled counts, keyed by demangled type name.
  std::map<std::string, uint64_t> UnhandledByType() const {
    std::map<std::string, uint64_t> out;
    for (const auto& [slot, per_type] : unhandled_by_type_) {
      out[Demangle(per_type.type->name())] += per_type.count;
    }
    return out;
  }

 private:
  using Handler = std::function<void(const Envelope&)>;
  struct UnhandledType {
    const std::type_info* type = nullptr;
    uint64_t count = 0;
  };

  std::unique_ptr<Handler>& HandlerFor(uint32_t slot) {
    if (slot >= handlers_.size()) handlers_.resize(slot + 1);
    return handlers_[slot];
  }

  template <typename T>
  static Handler Wrap(std::function<void(const Envelope&, const T&)> fn) {
    return [fn = std::move(fn)](const Envelope& env) {
      const T* payload = std::any_cast<T>(&env.payload);
      FUXI_CHECK(payload != nullptr)
          << "envelope type slot " << env.type_slot
          << " does not match its payload "
          << Demangle(env.payload.type().name());
      fn(env, *payload);
    };
  }

  /// Handlers by payload slot; null where this endpoint handles none.
  std::vector<std::unique_ptr<Handler>> handlers_;
  uint64_t unhandled_ = 0;
  std::map<uint32_t, UnhandledType> unhandled_by_type_;
};

/// Aggregate transport counters, used by the incremental-communication
/// ablation benchmark to compare message/byte volumes. `bytes_sent` is
/// the sum of exact encoded frame sizes.
struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;
  uint64_t messages_duplicated = 0;
  uint64_t bytes_sent = 0;
  /// Messages whose encoded bytes failed to decode under serialize-on-
  /// send (only possible with byte-level fault injection). Also counted
  /// in messages_dropped.
  uint64_t decode_drops = 0;
};

/// Cancellation token for a Flap() schedule. Cancelling stops future
/// flap transitions and heals the node if the flap left it partitioned.
class FlapHandle {
 public:
  FlapHandle() = default;

  void Cancel() {
    if (auto p = active_.lock()) *p = false;
  }
  bool active() const {
    auto p = active_.lock();
    return p && *p;
  }

 private:
  friend class Network;
  explicit FlapHandle(std::weak_ptr<bool> active)
      : active_(std::move(active)) {}

  std::weak_ptr<bool> active_;
};

/// Simulated datacenter network. Delivers payloads between registered
/// endpoints with configurable latency, and can inject the failure modes
/// the incremental protocol must survive: message loss, duplication, and
/// (via random jitter) reordering. Fault surfaces, from coarse to fine:
///   * Partition(node)     — symmetric: the node is cut off entirely
///   * CutLink(from, to)   — asymmetric: one direction of one link dies
///   * Flap(node, ...)     — periodic partition/heal cycle
/// In-flight messages crossing a partition or cut link at delivery time
/// vanish, modelling queue drops in a dying switch.
class Network {
 public:
  struct Config {
    double latency_mean = 0.0005;    ///< 0.5 ms one-way
    double latency_jitter = 0.0002;  ///< uniform +/- jitter; causes reordering
    double drop_probability = 0.0;
    double duplicate_probability = 0.0;
    /// Round-trip every payload through its encoded bytes before
    /// delivery: receivers see exactly what survives serialization, so
    /// pointer smuggling and non-encodable state are caught by
    /// construction. Payload types without a wire codec are a fatal
    /// error in this mode. With the fault probabilities below at zero
    /// this is an identity transform — same RNG draws, same delivery
    /// order, same state hashes as the fast path.
    bool serialize_on_send = false;
    /// Byte-level fault injection, applied to the encoded frame (needs
    /// serialize_on_send). A corrupted or truncated frame fails its
    /// checksum/bounds checks on decode and surfaces as a counted drop
    /// (stats().decode_drops) — never a crash, never a wrong message.
    double corrupt_probability = 0.0;
    double truncate_probability = 0.0;
  };

  Network(sim::Simulator* simulator, Config config, uint64_t seed = 42)
      : sim_(simulator), config_(config), rng_(seed) {
    FUXI_CHECK(simulator != nullptr);
  }

  /// Attaches `endpoint` as `node`. The endpoint must outlive the
  /// network or be detached first.
  void Register(NodeId node, Endpoint* endpoint) {
    FUXI_CHECK(endpoint != nullptr);
    endpoints_[node] = endpoint;
  }

  void Unregister(NodeId node) { endpoints_.erase(node); }
  bool IsRegistered(NodeId node) const { return endpoints_.count(node) > 0; }

  /// Cuts a node off: in-flight and future messages to/from it vanish,
  /// modelling a machine halt or full network disconnection. This is
  /// the symmetric special case of per-link cuts.
  void Partition(NodeId node) { partitioned_.insert(node); }
  void Heal(NodeId node) { partitioned_.erase(node); }
  bool IsPartitioned(NodeId node) const {
    return partitioned_.count(node) > 0;
  }

  /// Cuts one direction of one link: messages from `from` to `to` are
  /// dropped (including in-flight ones) while traffic the other way
  /// still flows — the asymmetric failure mode that breaks protocols
  /// which assume "I can hear you" implies "you can hear me".
  void CutLink(NodeId from, NodeId to) { cut_links_.insert({from, to}); }
  void HealLink(NodeId from, NodeId to) { cut_links_.erase({from, to}); }
  bool IsLinkCut(NodeId from, NodeId to) const {
    return cut_links_.count({from, to}) > 0;
  }
  size_t cut_link_count() const { return cut_links_.size(); }

  /// Starts a network flap on `node`: each `period`, the node is
  /// partitioned for `duty * period` seconds then healed for the rest.
  /// Runs until the returned handle is cancelled (cancel also heals).
  /// Deterministic: transitions are scheduled on the shared simulator.
  FlapHandle Flap(NodeId node, double period, double duty) {
    FUXI_CHECK(period > 0);
    if (duty < 0) duty = 0;
    if (duty > 1) duty = 1;
    auto active = std::make_shared<bool>(true);
    ScheduleFlapCycle(node, period, duty, active);
    return FlapHandle(active);
  }

  /// Sends `payload` from `from` to `to`. The wire size is measured from
  /// the payload's canonical encoding (wire.h) — exact bytes, not an
  /// estimate — so only wire messages can be sent. Under
  /// Config::serialize_on_send the payload additionally round-trips
  /// encode→decode before delivery; a frame broken by byte-level fault
  /// injection becomes a counted drop.
  template <typename T>
    requires wire::WireMessage<T>
  void Send(NodeId from, NodeId to, T payload) {
    constexpr wire::MsgTag tag = wire::TypeInfoOf<T>().tag;
    size_t wire_bytes;
    if (config_.serialize_on_send) {
      std::string& bytes = encode_buffer_;
      bytes.clear();
      wire::EncodeFramed(payload, &bytes);
      // Fault injection operates on the encoded form — the only place
      // byte-level faults exist. Guarded draws keep the RNG stream
      // identical to the fast path when both probabilities are zero.
      if (config_.corrupt_probability > 0 &&
          rng_.Bernoulli(config_.corrupt_probability)) {
        size_t index = rng_.Uniform(bytes.size());
        bytes[index] = static_cast<char>(
            static_cast<uint8_t>(bytes[index]) ^
            static_cast<uint8_t>(1 + rng_.Uniform(255)));
      }
      if (config_.truncate_probability > 0 &&
          rng_.Bernoulli(config_.truncate_probability)) {
        bytes.resize(rng_.Uniform(bytes.size()));
      }
      wire_bytes = bytes.size();
      NoteSend(tag, wire_bytes);
      T decoded;
      Status status = wire::DecodeFramed(bytes, &decoded);
      if (!status.ok()) {
        NoteDecodeDrop();
        return;
      }
      payload = std::move(decoded);
    } else {
      wire_bytes = wire::FramedSize(payload);
      NoteSend(tag, wire_bytes);
    }
    if (Blocked(from, to)) {
      NoteDrop();
      return;
    }
    if (config_.drop_probability > 0 &&
        rng_.Bernoulli(config_.drop_probability)) {
      NoteDrop();
      return;
    }
    int copies = 1;
    if (config_.duplicate_probability > 0 &&
        rng_.Bernoulli(config_.duplicate_probability)) {
      ++copies;
      stats_.messages_duplicated++;
    }
    const uint32_t type_slot = PayloadSlot<T>();
    for (int i = 0; i < copies; ++i) {
      uint32_t slot = TakeInFlightSlot();
      Envelope& env = in_flight_[slot];
      env.from = from;
      env.to = to;
      env.wire_seq = next_wire_seq_++;
      env.sent_at = sim_->Now();
      env.wire_bytes = wire_bytes;
      env.type_slot = type_slot;
      env.span = 0;
      if (tracer_ != nullptr) {
        // One span per copy: it opens here (parented to whatever span
        // the sender is running under) and closes when the receiving
        // handler returns, so the span covers wire latency + handling.
        env.span = tracer_->BeginMessageSpan(type_slot, typeid(T),
                                             from.value(), to.value(),
                                             wire_bytes);
      }
      if (i + 1 < copies) {
        env.payload = payload;  // an injected duplicate needs its own copy
      } else {
        env.payload = std::move(payload);
      }
      double latency = SampleLatency();
      sim_->Schedule(latency, [this, slot] { Deliver(slot); });
    }
  }

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }

  Config* mutable_config() { return &config_; }

  /// Wires tracing and metrics in. Either may be null (a null tracer
  /// turns message tracing off); hot paths guard with one pointer test.
  void SetObservability(obs::TraceRecorder* tracer,
                        obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
    per_type_counters_.clear();
    if (metrics != nullptr) {
      sent_counter_ = metrics->GetCounter("net.messages_sent");
      delivered_counter_ = metrics->GetCounter("net.messages_delivered");
      dropped_counter_ = metrics->GetCounter("net.messages_dropped");
      bytes_counter_ = metrics->GetCounter("net.bytes_sent");
      decode_drop_counter_ = metrics->GetCounter("net.decode_drops");
    } else {
      sent_counter_ = delivered_counter_ = dropped_counter_ =
          bytes_counter_ = decode_drop_counter_ = nullptr;
    }
  }

 private:
  struct PerTypeCounters {
    obs::Counter* msgs = nullptr;
    obs::Counter* bytes = nullptr;
  };

  /// Per-message-type counters ("net.msgs.master.GrantRpc",
  /// "net.bytes.master.GrantRpc"), resolved once per tag and cached so
  /// the hot path never builds a metric-name string.
  const PerTypeCounters& PerType(wire::MsgTag tag) {
    auto [it, inserted] =
        per_type_counters_.try_emplace(static_cast<uint16_t>(tag));
    if (inserted) {
      std::string name(wire::MsgTagName(tag));
      it->second.msgs = metrics_->GetCounter("net.msgs." + name);
      it->second.bytes = metrics_->GetCounter("net.bytes." + name);
    }
    return it->second;
  }

  void NoteSend(wire::MsgTag tag, size_t wire_bytes) {
    stats_.messages_sent++;
    stats_.bytes_sent += wire_bytes;
    if (sent_counter_ != nullptr) {
      sent_counter_->Add();
      bytes_counter_->Add(wire_bytes);
      const PerTypeCounters& per_type = PerType(tag);
      per_type.msgs->Add();
      per_type.bytes->Add(wire_bytes);
    }
  }

  void NoteDecodeDrop() {
    stats_.decode_drops++;
    stats_.messages_dropped++;
    if (dropped_counter_ != nullptr) dropped_counter_->Add();
    if (decode_drop_counter_ != nullptr) decode_drop_counter_->Add();
  }

  bool Blocked(NodeId from, NodeId to) const {
    return IsPartitioned(from) || IsPartitioned(to) || IsLinkCut(from, to);
  }

  double SampleLatency() {
    double jitter =
        config_.latency_jitter * (2.0 * rng_.NextDouble() - 1.0);
    double latency = config_.latency_mean + jitter;
    return latency > 0 ? latency : 0.0;
  }

  void NoteDrop() {
    stats_.messages_dropped++;
    if (dropped_counter_ != nullptr) dropped_counter_->Add();
  }

  uint32_t TakeInFlightSlot() {
    if (free_in_flight_.empty()) {
      in_flight_.emplace_back();
      return static_cast<uint32_t>(in_flight_.size() - 1);
    }
    uint32_t slot = free_in_flight_.back();
    free_in_flight_.pop_back();
    return slot;
  }

  /// Delivers the envelope in slab slot `slot` in place, then frees the
  /// slot (and the payload with it).
  void Deliver(uint32_t slot) {
    Envelope& env = in_flight_[slot];
    auto it = Blocked(env.from, env.to) ? endpoints_.end()
                                        : endpoints_.find(env.to);
    if (it == endpoints_.end()) {
      NoteDrop();
      if (tracer_ != nullptr) tracer_->DropSpan(env.span);
    } else {
      stats_.messages_delivered++;
      if (delivered_counter_ != nullptr) delivered_counter_->Add();
      bool handled;
      if (tracer_ != nullptr && env.span != 0) {
        // While the handler runs, this message is the ambient parent —
        // anything it sends in turn chains off it.
        obs::TraceRecorder::Scope scope(tracer_, env.span);
        handled = it->second->Dispatch(env);
        tracer_->EndSpan(env.span);
      } else {
        handled = it->second->Dispatch(env);
      }
      if (!handled && metrics_ != nullptr) {
        metrics_->GetCounter("net.unhandled." +
                             Demangle(env.payload.type().name()))
            ->Add();
      }
    }
    env.payload.reset();
    free_in_flight_.push_back(slot);
  }

  void ScheduleFlapCycle(NodeId node, double period, double duty,
                         std::shared_ptr<bool> active) {
    if (!*active) return;
    if (duty > 0) Partition(node);
    sim_->Schedule(duty * period, [this, node, period, duty, active] {
      // Heal even when the flap was cancelled mid-outage: a cancelled
      // flap must never leave the node dark forever.
      Heal(node);
      if (!*active) return;
      sim_->Schedule((1.0 - duty) * period,
                     [this, node, period, duty, active] {
                       ScheduleFlapCycle(node, period, duty, active);
                     });
    });
  }

  sim::Simulator* sim_;
  Config config_;
  Rng rng_;
  obs::TraceRecorder* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* sent_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* dropped_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* decode_drop_counter_ = nullptr;
  std::unordered_map<uint16_t, PerTypeCounters> per_type_counters_;
  uint64_t next_wire_seq_ = 0;
  /// In-flight message copies by slab slot: a delivery event captures only
  /// [this, slot], which fits std::function's inline buffer. A deque, so
  /// an envelope stays put while its handler sends (and grows the slab).
  std::deque<Envelope> in_flight_;
  std::vector<uint32_t> free_in_flight_;
  /// serialize_on_send's frame buffer, reused across sends.
  std::string encode_buffer_;
  std::unordered_map<NodeId, Endpoint*> endpoints_;
  std::unordered_set<NodeId> partitioned_;
  std::set<std::pair<NodeId, NodeId>> cut_links_;
  NetworkStats stats_;
};

}  // namespace fuxi::net

#endif  // FUXI_NET_NETWORK_H_
