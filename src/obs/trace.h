#ifndef FUXI_OBS_TRACE_H_
#define FUXI_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <typeinfo>
#include <unordered_map>
#include <vector>

#include "obs/flight_recorder.h"
#include "sim/simulator.h"

namespace fuxi::obs {

/// Records causal spans for simulated RPCs and named local work.
///
/// Determinism rules (required by the chaos replay gate):
///  * span IDs come from a per-recorder monotonic counter, never from
///    wall clock or addresses — same seed, same IDs;
///  * begin/end stamps are virtual time from the Simulator;
///  * real wall-clock durations may be *attached* to a span (scheduler
///    hot paths) but never participate in IDs, ordering, or hashes.
///
/// Causality: each recorder keeps one ambient "current span". A message
/// span begun in Network::Send records the sender's ambient span as its
/// parent; while the receiving handler runs, Network::Deliver makes the
/// message span ambient (RAII Scope), so any message the handler sends
/// in turn is parented to it. That chains master→agent→job→worker
/// through arbitrarily many deterministic hops.
///
/// Tracing is off when no recorder is attached: every call site tests
/// its recorder pointer (see Network::SetObservability) before use.
class TraceRecorder {
 public:
  explicit TraceRecorder(sim::Simulator* sim,
                         size_t ring_capacity = kDefaultRingCapacity);

  /// Begins a local (non-message) span parented to the ambient span.
  uint64_t BeginSpan(const char* category, const char* name);

  /// Begins a span for one in-flight message copy. The name is the
  /// demangled payload type, cached under the payload's type slot
  /// (net::PayloadSlot), so the hot path hashes no type name and the
  /// span stores no allocation.
  uint64_t BeginMessageSpan(uint32_t type_slot,
                            const std::type_info& payload_type,
                            int64_t from, int64_t to, uint64_t bytes);

  /// Completes a span. `wall_us` >= 0 attaches a measured real
  /// wall-clock cost (scheduler hot paths); it is annotation only.
  void EndSpan(uint64_t id, double wall_us = -1);

  /// Completes a message span whose envelope vanished in the network
  /// (drop, partition, dead endpoint) — kept in the trace, flagged.
  void DropSpan(uint64_t id);

  /// Makes `span` the ambient parent for the duration of a handler.
  class Scope {
   public:
    Scope(TraceRecorder* recorder, uint64_t span)
        : recorder_(recorder), saved_(recorder->current_) {
      recorder_->current_ = span;
    }
    ~Scope() { recorder_->current_ = saved_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    TraceRecorder* recorder_;
    uint64_t saved_;
  };

  uint64_t current() const { return current_; }

  /// Completed spans retained by the flight recorder, oldest first.
  std::vector<SpanRecord> Snapshot() const { return flight_.Snapshot(); }
  const FlightRecorder& flight() const { return flight_; }

  uint64_t spans_begun() const { return next_id_ - 1; }
  size_t open_spans() const { return open_.size(); }

  static constexpr size_t kDefaultRingCapacity = 1 << 16;

 private:
  /// Demangled name of the payload type in `type_slot`, demangled on
  /// first use; the pointer stays valid for the recorder's lifetime.
  const char* MessageName(uint32_t type_slot, const std::type_info& type);
  void Finish(uint64_t id, double wall_us, bool dropped);

  sim::Simulator* sim_;
  uint64_t next_id_ = 1;  // 0 is "no span"
  uint64_t current_ = 0;
  std::unordered_map<uint64_t, SpanRecord> open_;
  // By type slot; unique_ptr<string> so c_str() pointers survive growth.
  std::vector<std::unique_ptr<std::string>> names_;
  FlightRecorder flight_;
};

}  // namespace fuxi::obs

#endif  // FUXI_OBS_TRACE_H_
