#ifndef FUXI_OBS_FLIGHT_RECORDER_H_
#define FUXI_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace fuxi::obs {

/// One completed causal span. Message spans cover a simulated RPC from
/// Send() to the end of the receiving handler; local spans cover a
/// named region of work (e.g. one scheduler request application).
/// `parent` links to the span that was ambient when this one began, so
/// a dump reconstructs the causal chain master → agent → job → worker.
struct SpanRecord {
  uint64_t id = 0;      ///< deterministic, from the recorder's counter
  uint64_t parent = 0;  ///< 0 = root (no causal predecessor)
  double begin = 0;     ///< virtual seconds
  double end = 0;       ///< virtual seconds
  double wall_us = -1;  ///< real wall-clock cost when timed, else -1
  int64_t from = -1;    ///< sender NodeId for message spans, else -1
  int64_t to = -1;      ///< receiver NodeId for message spans, else -1
  uint64_t bytes = 0;   ///< approximate wire bytes (message spans)
  bool dropped = false; ///< the message vanished in the network
  const char* category = "";  ///< interned; stable for recorder lifetime
  const char* name = "";      ///< interned; stable for recorder lifetime
};

/// Bounded ring buffer of records — the "black box" the chaos
/// InvariantMonitor dumps when an invariant fires. Bounded so recording
/// can stay on for arbitrarily long campaigns: when full, the oldest
/// record is overwritten, keeping the most recent history leading up to
/// the violation.
///
/// `head_` is the explicit overwrite position: once the ring has
/// lapped, it always indexes the oldest retained record, so Snapshot()
/// emits oldest-first by construction in every state — partially
/// filled, exactly full, lapped many times over, or refilled after
/// Clear(). (The previous implementation derived the start slot from
/// `total_ % capacity_`; correct, but only by arithmetic coincidence —
/// any future change to the overwrite rule would have silently
/// scrambled dump order. The regression tests in obs_test.cc pin the
/// oldest-first contract across all of these states.)
template <typename Record>
class BoundedRing {
 public:
  explicit BoundedRing(size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  void Push(Record record) {
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(record));
    } else {
      ring_[head_] = std::move(record);
      head_ = (head_ + 1) % capacity_;
    }
    ++total_;
  }

  /// Retained records, oldest first.
  std::vector<Record> Snapshot() const {
    std::vector<Record> out;
    out.reserve(ring_.size());
    // head_ stays 0 until the first overwrite, so this single loop
    // covers both the unwrapped and the lapped ring.
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  size_t size() const { return ring_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t total_pushed() const { return total_; }
  /// Records lost to the ring bound (overwritten).
  uint64_t overwritten() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  void Clear() {
    ring_.clear();
    head_ = 0;
    total_ = 0;
  }

 private:
  size_t capacity_;
  size_t head_ = 0;  ///< oldest retained record once the ring lapped
  uint64_t total_ = 0;
  std::vector<Record> ring_;
};

/// The span black box kept by TraceRecorder.
using FlightRecorder = BoundedRing<SpanRecord>;

}  // namespace fuxi::obs

#endif  // FUXI_OBS_FLIGHT_RECORDER_H_
