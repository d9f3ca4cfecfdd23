#include <gtest/gtest.h>

#include <string>

#include "coord/checkpoint_store.h"
#include "coord/lock_service.h"

namespace fuxi::coord {
namespace {

class LockServiceTest : public ::testing::Test {
 protected:
  LockServiceTest() : locks_(&sim_) {}
  sim::Simulator sim_;
  LockService locks_;
};

TEST_F(LockServiceTest, FirstAcquirerWins) {
  EXPECT_TRUE(locks_.TryAcquire("master", NodeId(1), 10).ok());
  EXPECT_TRUE(locks_.TryAcquire("master", NodeId(2), 10).IsNotFound() ==
              false);  // it's AlreadyExists, checked below
  Status second = locks_.TryAcquire("master", NodeId(2), 10);
  EXPECT_EQ(second.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(locks_.Holder("master"), NodeId(1));
}

TEST_F(LockServiceTest, LeaseExpiresWithoutRenewal) {
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 5).ok());
  sim_.RunUntil(4.9);
  EXPECT_EQ(locks_.Holder("master"), NodeId(1));
  sim_.RunUntil(5.1);
  EXPECT_FALSE(locks_.Holder("master").valid());
  EXPECT_TRUE(locks_.TryAcquire("master", NodeId(2), 5).ok());
}

TEST_F(LockServiceTest, RenewalExtendsLease) {
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 5).ok());
  sim_.Schedule(4.0, [&] {
    EXPECT_TRUE(locks_.Renew("master", NodeId(1), 5).ok());
  });
  sim_.RunUntil(8.0);
  EXPECT_EQ(locks_.Holder("master"), NodeId(1));
  sim_.RunUntil(9.5);
  EXPECT_FALSE(locks_.Holder("master").valid());
}

TEST_F(LockServiceTest, WatcherFiresOnExpiry) {
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 5).ok());
  bool notified = false;
  locks_.WatchRelease("master", [&] {
    notified = true;
    // Standby grabs the lock inside the callback, as FuxiMaster does.
    EXPECT_TRUE(locks_.TryAcquire("master", NodeId(2), 5).ok());
  });
  sim_.RunUntil(6.0);
  EXPECT_TRUE(notified);
  EXPECT_EQ(locks_.Holder("master"), NodeId(2));
}

TEST_F(LockServiceTest, WatcherFiresOnVoluntaryRelease) {
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 100).ok());
  int notifications = 0;
  locks_.WatchRelease("master", [&] { ++notifications; });
  ASSERT_TRUE(locks_.Release("master", NodeId(1)).ok());
  EXPECT_EQ(notifications, 1);
}

TEST_F(LockServiceTest, ReleaseByNonHolderFails) {
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 100).ok());
  EXPECT_TRUE(locks_.Release("master", NodeId(2)).IsNotFound());
  EXPECT_EQ(locks_.Holder("master"), NodeId(1));
}

TEST_F(LockServiceTest, StaleExpiryDoesNotEvictRenewedHolder) {
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 5).ok());
  // Renew at t=3; the original expiry event at t=5 must be a no-op.
  sim_.Schedule(3.0, [&] {
    ASSERT_TRUE(locks_.Renew("master", NodeId(1), 5).ok());
  });
  sim_.RunUntil(6.0);
  EXPECT_EQ(locks_.Holder("master"), NodeId(1));
}

TEST_F(LockServiceTest, ExpireNowForcesFailover) {
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 100).ok());
  bool notified = false;
  locks_.WatchRelease("master", [&] { notified = true; });
  locks_.ExpireNow("master");
  EXPECT_TRUE(notified);
  EXPECT_FALSE(locks_.Holder("master").valid());
}

TEST_F(LockServiceTest, HolderReacquireRefreshesLease) {
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 5).ok());
  sim_.Schedule(4.0, [&] {
    EXPECT_TRUE(locks_.TryAcquire("master", NodeId(1), 5).ok());
  });
  sim_.RunUntil(8.5);
  EXPECT_EQ(locks_.Holder("master"), NodeId(1));
}

TEST_F(LockServiceTest, ExpireNowRacingRenewDeposesTheHolder) {
  // The lock server declares node 1 dead at the same instant node 1
  // tries to renew. ExpireNow bumped the generation, so the renew must
  // lose: the old holder learns it was deposed, and a new owner's
  // acquisition cannot be shadowed by the stale holder.
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 10).ok());
  locks_.ExpireNow("master");
  EXPECT_EQ(locks_.Renew("master", NodeId(1), 10).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(locks_.TryAcquire("master", NodeId(2), 10).ok());
  EXPECT_EQ(locks_.Renew("master", NodeId(1), 10).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(locks_.Holder("master"), NodeId(2));
}

TEST_F(LockServiceTest, RenewExactlyAtTheDeadlineFails) {
  // Leases are half-open: at exactly t = deadline the lease is gone.
  // A renew arriving just before the deadline succeeds; one arriving
  // exactly at it must fail — Renew checks the deadline itself, so
  // this holds whether or not the expiry event has run yet, and two
  // masters can never both believe they hold the lock.
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 5).ok());
  sim_.RunUntil(4.0);
  EXPECT_TRUE(locks_.Renew("master", NodeId(1), 4.0).ok());  // deadline 8.0
  sim_.RunUntil(8.0);
  EXPECT_EQ(locks_.Renew("master", NodeId(1), 5).code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(locks_.Holder("master").valid());
  // The lease is free: a standby acquires immediately.
  EXPECT_TRUE(locks_.TryAcquire("master", NodeId(2), 5).ok());
}

TEST_F(LockServiceTest, WatchReleaseReacquireStormElectsExactlyOne) {
  // Ten standbys all watch the lease and storm TryAcquire from inside
  // the release callback — the shard-failover thundering herd. Exactly
  // one must win; the rest see AlreadyExists and re-register their
  // watch for the next failover.
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 5).ok());
  int winners = 0;
  int losers = 0;
  std::function<void(NodeId)> watch = [&](NodeId standby) {
    locks_.WatchRelease("master", [&, standby] {
      Status s = locks_.TryAcquire("master", standby, 5);
      if (s.ok()) {
        ++winners;
      } else {
        EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
        ++losers;
        watch(standby);  // re-arm for the next release
      }
    });
  };
  for (int i = 2; i <= 11; ++i) watch(NodeId(i));

  sim_.RunUntil(6.0);  // lease lapses, storm fires
  EXPECT_EQ(winners, 1);
  EXPECT_EQ(losers, 9);
  NodeId first_winner = locks_.Holder("master");
  EXPECT_TRUE(first_winner.valid());

  // Depose the winner: the nine re-armed watchers storm again and
  // again exactly one succeeds.
  locks_.ExpireNow("master");
  EXPECT_EQ(winners, 2);
  EXPECT_EQ(losers, 17);
  EXPECT_TRUE(locks_.Holder("master").valid());
  EXPECT_NE(locks_.Holder("master"), first_winner);
}

TEST_F(LockServiceTest, ResolvedEntryAnswersLikeHolderByName) {
  // The invariant monitor resolves a shard lock's entry once and asks
  // HolderOf on every event; it must answer what Holder(name) answers.
  auto expect_holder = [&](const LockService::Lock* entry, NodeId expected) {
    EXPECT_EQ(locks_.Holder("master"), expected);
    EXPECT_EQ(locks_.HolderOf(entry), expected);
  };
  // Before the lock first exists: no entry, nobody holds it.
  const LockService::Lock* entry = locks_.Find("master");
  EXPECT_EQ(entry, nullptr);
  expect_holder(entry, NodeId());

  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(1), 5).ok());
  entry = locks_.Find("master");
  ASSERT_NE(entry, nullptr);
  expect_holder(entry, NodeId(1));
  // Entries created later leave the resolved one where it is.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        locks_.TryAcquire("other" + std::to_string(i), NodeId(9), 1).ok());
  }
  EXPECT_EQ(locks_.Find("master"), entry);

  sim_.RunUntil(4.9);
  expect_holder(entry, NodeId(1));
  sim_.RunUntil(5.0);  // lease deadline: expired
  expect_holder(entry, NodeId());
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(2), 5).ok());
  expect_holder(entry, NodeId(2));
  ASSERT_TRUE(locks_.Release("master", NodeId(2)).ok());
  expect_holder(entry, NodeId());
  ASSERT_TRUE(locks_.TryAcquire("master", NodeId(3), 5).ok());
  expect_holder(entry, NodeId(3));
  locks_.ExpireNow("master");
  expect_holder(entry, NodeId());
  EXPECT_EQ(locks_.Find("master"), entry);
}

TEST_F(LockServiceTest, WatchingCreatesAnUnheldEntry) {
  EXPECT_EQ(locks_.Find("standby"), nullptr);
  locks_.WatchRelease("standby", [] {});
  const LockService::Lock* entry = locks_.Find("standby");
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(locks_.HolderOf(entry).valid());
  EXPECT_FALSE(locks_.Holder("standby").valid());
  ASSERT_TRUE(locks_.TryAcquire("standby", NodeId(4), 5).ok());
  EXPECT_EQ(locks_.HolderOf(entry), NodeId(4));
}

TEST(CheckpointStoreTest, PutGetRoundTrip) {
  CheckpointStore store;
  Json value = Json::MakeObject();
  value["jobs"] = Json(3);
  store.Put("fuxi/apps", value);
  auto loaded = store.Get("fuxi/apps");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->GetInt("jobs"), 3);
}

TEST(CheckpointStoreTest, GetMissingReturnsNotFound) {
  CheckpointStore store;
  EXPECT_TRUE(store.Get("nope").status().IsNotFound());
}

TEST(CheckpointStoreTest, OverwriteReplaces) {
  CheckpointStore store;
  store.Put("k", Json(1));
  store.Put("k", Json(2));
  EXPECT_EQ(store.Get("k")->as_int(), 2);
  EXPECT_EQ(store.write_count(), 2u);
}

TEST(CheckpointStoreTest, DeleteIsIdempotent) {
  CheckpointStore store;
  store.Put("k", Json(1));
  store.Delete("k");
  store.Delete("k");
  EXPECT_FALSE(store.Contains("k"));
}

TEST(CheckpointStoreTest, ListKeysFiltersByPrefix) {
  CheckpointStore store;
  store.Put("app/1", Json(1));
  store.Put("app/2", Json(2));
  store.Put("job/1", Json(3));
  auto keys = store.ListKeys("app/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "app/1");
  EXPECT_EQ(keys[1], "app/2");
}

TEST(CheckpointStoreTest, TracksBytesWritten) {
  CheckpointStore store;
  store.Put("k", Json("0123456789"));
  EXPECT_GE(store.bytes_written(), 10u);
}

}  // namespace
}  // namespace fuxi::coord
