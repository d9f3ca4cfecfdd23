#ifndef FUXI_COORD_LOCK_SERVICE_H_
#define FUXI_COORD_LOCK_SERVICE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "sim/simulator.h"

namespace fuxi::coord {

/// Simulated distributed lock service with leases — our stand-in for
/// the Apsara lock service the paper uses for FuxiMaster hot-standby
/// election (§4.3.1): the primary holds the lock; when it dies its lease
/// expires and the standby's acquisition callback fires.
class LockService {
 public:
  explicit LockService(sim::Simulator* simulator) : sim_(simulator) {}

  /// Attempts to take `name` for `owner` with the given lease duration.
  /// Returns AlreadyExists when another live owner holds it.
  Status TryAcquire(const std::string& name, NodeId owner,
                    double lease_seconds);

  /// Extends the lease. Fails with NotFound if `owner` does not hold it
  /// (e.g. the lease already expired and someone else acquired it).
  Status Renew(const std::string& name, NodeId owner, double lease_seconds);

  /// Voluntarily drops the lock; waiters are notified immediately.
  Status Release(const std::string& name, NodeId owner);

  /// Current holder, or invalid NodeId when free.
  NodeId Holder(const std::string& name) const { return HolderOf(Find(name)); }

  struct Lock;
  /// The entry behind `name`, for callers that ask for its holder on
  /// every event: resolve once, then HolderOf skips the string-keyed
  /// lookup. Null until `name` is first acquired or watched. Entries are
  /// never erased, so a non-null result stays valid for the service's
  /// lifetime.
  const Lock* Find(const std::string& name) const;
  /// Holder(name) for the entry Find(name) returned (null: free).
  NodeId HolderOf(const Lock* lock) const;

  /// Registers a callback invoked whenever `name` becomes free (release
  /// or lease expiry). Waiters typically re-call TryAcquire inside it.
  void WatchRelease(const std::string& name, std::function<void()> callback);

  /// Forces immediate expiry of `name`'s lease (fault injection: lock
  /// server declares the holder dead).
  void ExpireNow(const std::string& name);

 private:
  void ScheduleExpiry(const std::string& name, uint64_t generation,
                      double deadline);
  void ReleaseInternal(const std::string& name);

  sim::Simulator* sim_;
  std::map<std::string, Lock> locks_;
};

struct LockService::Lock {
  NodeId holder;
  uint64_t generation = 0;  ///< bumps on every acquire; stale expiry guard
  double lease_deadline = 0;
  std::vector<std::function<void()>> watchers;
};

}  // namespace fuxi::coord

#endif  // FUXI_COORD_LOCK_SERVICE_H_
