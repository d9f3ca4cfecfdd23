#include "coord/lock_service.h"

#include <utility>

namespace fuxi::coord {

Status LockService::TryAcquire(const std::string& name, NodeId owner,
                               double lease_seconds) {
  Lock& lock = locks_[name];
  double now = sim_->Now();
  if (lock.holder.valid() && lock.lease_deadline > now) {
    if (lock.holder == owner) {
      // Re-acquisition by the holder refreshes the lease.
      lock.lease_deadline = now + lease_seconds;
      ++lock.generation;
      ScheduleExpiry(name, lock.generation, lock.lease_deadline);
      return Status::Ok();
    }
    return Status::AlreadyExists("lock " + name + " held by node " +
                                 lock.holder.ToString());
  }
  lock.holder = owner;
  lock.lease_deadline = now + lease_seconds;
  ++lock.generation;
  ScheduleExpiry(name, lock.generation, lock.lease_deadline);
  return Status::Ok();
}

Status LockService::Renew(const std::string& name, NodeId owner,
                          double lease_seconds) {
  auto it = locks_.find(name);
  if (it == locks_.end() || it->second.holder != owner ||
      it->second.lease_deadline <= sim_->Now()) {
    return Status::NotFound("lock " + name + " not held by node " +
                            owner.ToString());
  }
  Lock& lock = it->second;
  lock.lease_deadline = sim_->Now() + lease_seconds;
  ++lock.generation;
  ScheduleExpiry(name, lock.generation, lock.lease_deadline);
  return Status::Ok();
}

Status LockService::Release(const std::string& name, NodeId owner) {
  auto it = locks_.find(name);
  if (it == locks_.end() || it->second.holder != owner) {
    return Status::NotFound("lock " + name + " not held by node " +
                            owner.ToString());
  }
  ReleaseInternal(name);
  return Status::Ok();
}

const LockService::Lock* LockService::Find(const std::string& name) const {
  auto it = locks_.find(name);
  return it == locks_.end() ? nullptr : &it->second;
}

NodeId LockService::HolderOf(const Lock* lock) const {
  if (lock == nullptr || lock->lease_deadline <= sim_->Now()) return NodeId();
  return lock->holder;
}

void LockService::WatchRelease(const std::string& name,
                               std::function<void()> callback) {
  locks_[name].watchers.push_back(std::move(callback));
}

void LockService::ExpireNow(const std::string& name) {
  auto it = locks_.find(name);
  if (it == locks_.end() || !it->second.holder.valid()) return;
  ReleaseInternal(name);
}

void LockService::ScheduleExpiry(const std::string& name,
                                 uint64_t generation, double deadline) {
  sim_->ScheduleAt(deadline, [this, name, generation]() {
    auto it = locks_.find(name);
    if (it == locks_.end()) return;
    Lock& lock = it->second;
    // A later renew/acquire bumped the generation; this expiry is stale.
    if (lock.generation != generation) return;
    if (!lock.holder.valid()) return;
    ReleaseInternal(name);
  });
}

void LockService::ReleaseInternal(const std::string& name) {
  Lock& lock = locks_[name];
  lock.holder = NodeId();
  lock.lease_deadline = 0;
  ++lock.generation;
  // Watchers may re-acquire synchronously; move the list out first so
  // re-registration during callbacks is safe.
  std::vector<std::function<void()>> watchers = std::move(lock.watchers);
  lock.watchers.clear();
  for (auto& w : watchers) w();
}

}  // namespace fuxi::coord
