#ifndef FUXI_AGENT_CAPACITY_SEQ_GUARD_H_
#define FUXI_AGENT_CAPACITY_SEQ_GUARD_H_

#include <cstdint>
#include <set>

namespace fuxi::agent {

/// Replay guard of the master->agent capacity channel (see
/// AgentCapacityRpc::seq). Deltas commute, so a message is dropped only
/// when it is a network duplicate or a delta older than the last full
/// snapshot; a new master generation starts a fresh counter space.
///
/// Every seq at or below `watermark()` has been applied or is covered
/// by a full snapshot. Applied deltas above it are held individually
/// until the gap below them fills, then folded into the watermark, so
/// in-order delivery keeps the held set empty and only reordering (or a
/// delta lost for good) makes it grow.
class CapacitySeqGuard {
 public:
  /// Returns true when the message must be applied, and records it.
  bool Accept(uint64_t generation, uint64_t seq, bool full) {
    if (generation != generation_) {
      generation_ = generation;
      watermark_ = 0;
      above_.clear();
    }
    if (seq <= watermark_ || above_.count(seq) > 0) return false;
    if (full) {
      // The snapshot supersedes every earlier seq; later deltas held
      // above it are forgotten, so their duplicates apply again on top
      // of the snapshot.
      watermark_ = seq;
      above_.clear();
      return true;
    }
    if (seq != watermark_ + 1) {
      above_.insert(seq);  // a gap below: hold it until the gap fills
      return true;
    }
    ++watermark_;
    auto it = above_.begin();
    while (it != above_.end() && *it == watermark_ + 1) {
      ++watermark_;
      it = above_.erase(it);
    }
    return true;
  }

  uint64_t watermark() const { return watermark_; }
  /// Applied deltas still held above the watermark.
  size_t held() const { return above_.size(); }

 private:
  uint64_t generation_ = 0;
  uint64_t watermark_ = 0;
  std::set<uint64_t> above_;
};

}  // namespace fuxi::agent

#endif  // FUXI_AGENT_CAPACITY_SEQ_GUARD_H_
