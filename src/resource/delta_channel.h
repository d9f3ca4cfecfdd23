#ifndef FUXI_RESOURCE_DELTA_CHANNEL_H_
#define FUXI_RESOURCE_DELTA_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <tuple>

#include "wire/wire.h"

namespace fuxi::resource {

/// A delta message stamped for exactly-once, in-order application.
/// The incremental protocol (paper §3.1) requires that "the changed
/// portions be delivered and processed in the same order at the
/// receiver side as they are generated on sender side" and that
/// duplicated deltas be idempotent. Stamping every delta with
/// (epoch, seq) provides both: duplicates repeat a (epoch, seq) pair and
/// are dropped; reordering is fixed by buffering until contiguous.
/// A full-state message opens a new epoch and resets the baseline — the
/// periodic "safety measurement" sync that repairs any divergence.
template <typename Delta>
struct Stamped {
  uint64_t epoch = 0;
  uint64_t seq = 0;     ///< 1-based within the epoch
  bool is_full = false; ///< true: payload is absolute state, not a delta
  Delta payload{};
};

/// Wire field list of every Stamped<Delta> (FUXI_WIRE_FIELDS, wire.h): the
/// stamp, then the payload. The concrete messages (StampedRequest,
/// StampedGrant) register their tags and versions in protocol.h.
template <typename M>
  requires wire::FieldsOf<M, Stamped<decltype(M::payload)>>
constexpr auto WireFields(M& m) {
  return std::tie(m.epoch, m.seq, m.is_full, m.payload);
}

/// Sender half: stamps outgoing deltas. Not thread-safe (one channel
/// per directed peer pair).
template <typename Delta>
class DeltaSender {
 public:
  /// Stamps an incremental delta in the current epoch.
  Stamped<Delta> Stamp(Delta delta) {
    return Stamped<Delta>{epoch_, next_seq_++, false, std::move(delta)};
  }

  /// Stamps a full-state snapshot, opening a new epoch. Subsequent
  /// deltas build on this snapshot.
  Stamped<Delta> StampFull(Delta full_state) {
    ++epoch_;
    next_seq_ = 1;
    return Stamped<Delta>{epoch_, next_seq_++, true, std::move(full_state)};
  }

  uint64_t epoch() const { return epoch_; }
  uint64_t next_seq() const { return next_seq_; }

 private:
  uint64_t epoch_ = 1;
  uint64_t next_seq_ = 1;
};

/// Receiver half: filters duplicates, restores order, and detects
/// unrecoverable gaps (requesting a full-state resync).
template <typename Delta>
class DeltaReceiver {
 public:
  enum class Outcome {
    kApplied,    ///< handed to apply (possibly draining buffered successors)
    kDuplicate,  ///< already seen; dropped
    kBuffered,   ///< out of order; held until the gap fills
    kNeedResync, ///< cannot recover ordering; sender must send full state
  };

  explicit DeltaReceiver(size_t max_buffered = 64)
      : max_buffered_(max_buffered) {}

  /// Processes one stamped message. `apply(payload, is_full)` is invoked
  /// for the message and for any buffered successors that become
  /// contiguous. Returns what happened to the *incoming* message.
  Outcome Receive(const Stamped<Delta>& msg,
                  const std::function<void(const Delta&, bool)>& apply) {
    if (msg.epoch < epoch_) return Outcome::kDuplicate;  // stale epoch
    if (msg.epoch > epoch_) {
      bool fresh_channel = epoch_ == 0 && msg.epoch == 1;
      if (!fresh_channel && (!msg.is_full || msg.seq != 1)) {
        // Deltas from an epoch whose base snapshot we never saw are
        // unusable; ask for the snapshot.
        return Outcome::kNeedResync;
      }
      epoch_ = msg.epoch;
      last_applied_ = 0;
      buffer_.clear();
    }
    if (msg.seq <= last_applied_) return Outcome::kDuplicate;
    if (msg.seq == last_applied_ + 1) {
      apply(msg.payload, msg.is_full);
      last_applied_ = msg.seq;
      DrainBuffer(apply);
      return Outcome::kApplied;
    }
    // Out of order: hold it. Duplicate buffered entries collapse.
    if (buffer_.size() >= max_buffered_ && buffer_.count(msg.seq) == 0) {
      return Outcome::kNeedResync;
    }
    buffer_.emplace(msg.seq, msg);
    return Outcome::kBuffered;
  }

  uint64_t epoch() const { return epoch_; }
  uint64_t last_applied() const { return last_applied_; }
  size_t buffered() const { return buffer_.size(); }

 private:
  void DrainBuffer(const std::function<void(const Delta&, bool)>& apply) {
    auto it = buffer_.begin();
    while (it != buffer_.end() && it->first <= last_applied_ + 1) {
      if (it->first == last_applied_ + 1) {
        apply(it->second.payload, it->second.is_full);
        last_applied_ = it->first;
      }
      it = buffer_.erase(it);
    }
  }

  size_t max_buffered_;
  uint64_t epoch_ = 0;  ///< 0 = nothing received yet; any epoch accepted
  uint64_t last_applied_ = 0;
  std::map<uint64_t, Stamped<Delta>> buffer_;
};

}  // namespace fuxi::resource

#endif  // FUXI_RESOURCE_DELTA_CHANNEL_H_
