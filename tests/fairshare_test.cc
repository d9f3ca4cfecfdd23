// Unit tests for the hierarchical fair-share tree: the weighted
// multi-tenant generalization of the paper's flat quota groups. The
// flat degenerate case lives in quota_test.cc; everything here
// exercises behaviour that only engages once the tree is genuinely
// hierarchical (multi-segment paths, weights, preemption budgets).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "resource/fairshare.h"

namespace fuxi::resource {
namespace {

using cluster::ResourceVector;

TEST(FairShareTreeTest, MalformedPathsRejected) {
  FairShareTree tree;
  for (const char* bad : {"", "/a", "a/", "a//b", "/"}) {
    EXPECT_EQ(tree.CreateNode(bad, ResourceVector()).code(),
              StatusCode::kInvalidArgument)
        << "path: '" << bad << "'";
  }
  EXPECT_EQ(tree.node_count(), 0u);
}

TEST(FairShareTreeTest, HierarchicalFlagTracksConfigurationShape) {
  {
    FairShareTree tree;
    EXPECT_TRUE(tree.CreateNode("a", ResourceVector(10, 10)).ok());
    EXPECT_FALSE(tree.hierarchical()) << "flat single-segment config";
  }
  {
    FairShareTree tree;
    EXPECT_TRUE(tree.CreateNode("a/b", ResourceVector(10, 10)).ok());
    EXPECT_TRUE(tree.hierarchical()) << "multi-segment path";
  }
  {
    FairShareTree tree;
    FairShareTree::NodeConfig config;
    config.weight = 2.0;
    EXPECT_TRUE(tree.CreateNode("a", ResourceVector(10, 10), config).ok());
    EXPECT_TRUE(tree.hierarchical()) << "non-default weight";
  }
  {
    FairShareTree tree;
    FairShareTree::NodeConfig config;
    config.preemption_budget = 5;
    EXPECT_TRUE(tree.CreateNode("a", ResourceVector(10, 10), config).ok());
    EXPECT_TRUE(tree.hierarchical()) << "preemption budget";
  }
}

TEST(FairShareTreeTest, StructuralAncestorsAreUnboundedUntilBound) {
  FairShareTree tree;
  ASSERT_TRUE(tree.CreateNode("t/org/user", ResourceVector(100, 1000)).ok());
  const FairShareTree::Node* org = tree.FindNode("t/org");
  ASSERT_NE(org, nullptr);
  EXPECT_FALSE(org->bounded);
  EXPECT_EQ(org->depth, 2);
  // A structural node never claims quota verdicts, whatever its books.
  ASSERT_TRUE(tree.AssignApp(AppId(1), "t/org/user").ok());
  tree.OnGrant(AppId(1), ResourceVector(500, 5000));
  tree.OnWaitingChange(AppId(1), ResourceVector(50, 500));
  EXPECT_FALSE(tree.OverQuota(*org));
  EXPECT_FALSE(tree.HasDeficit(*org));
  // Binding the ancestor afterwards attaches a guarantee to the
  // existing structural node...
  EXPECT_TRUE(tree.CreateNode("t/org", ResourceVector(200, 2000)).ok());
  EXPECT_TRUE(org->bounded);
  EXPECT_TRUE(tree.OverQuota(*org)) << "500 cpu against a 200 guarantee";
  // ...and re-binding a bounded node is the legacy duplicate error.
  EXPECT_EQ(tree.CreateNode("t/org", ResourceVector()).code(),
            StatusCode::kAlreadyExists);
}

TEST(FairShareTreeTest, AccountingRollsUpToEveryAncestor) {
  FairShareTree tree;
  ASSERT_TRUE(tree.CreateNode("t/a", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree.CreateNode("t/b", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree.AssignApp(AppId(1), "t/a").ok());
  ASSERT_TRUE(tree.AssignApp(AppId(2), "t/b").ok());
  tree.OnGrant(AppId(1), ResourceVector(30, 300));
  tree.OnGrant(AppId(2), ResourceVector(20, 200));
  EXPECT_EQ(tree.FindNode("t/a")->usage.cpu(), 30);
  EXPECT_EQ(tree.FindNode("t/b")->usage.cpu(), 20);
  EXPECT_EQ(tree.FindNode("t")->usage.cpu(), 50);
  EXPECT_EQ(tree.root().usage.cpu(), 50);
  tree.OnRevoke(AppId(1), ResourceVector(30, 300));
  EXPECT_EQ(tree.FindNode("t")->usage.cpu(), 20);
  tree.OnWaitingChange(AppId(2), ResourceVector(5, 50));
  EXPECT_EQ(tree.FindNode("t")->waiting.cpu(), 5);
  EXPECT_EQ(tree.root().waiting.cpu(), 5);
}

TEST(FairShareTreeTest, PathPredicatesSeeAncestorState) {
  FairShareTree tree;
  ASSERT_TRUE(tree.CreateNode("t", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree.CreateNode("t/u", ResourceVector(80, 800)).ok());
  ASSERT_TRUE(tree.AssignApp(AppId(1), "t/u").ok());
  const FairShareTree::Node* u = tree.FindNode("t/u");
  // The leaf stays inside its own guarantee, but the grant pushes the
  // *parent* past 100 cpu: the path is over quota.
  tree.OnGrant(AppId(1), ResourceVector(70, 700));
  ASSERT_TRUE(tree.AssignApp(AppId(2), "t").ok());
  tree.OnGrant(AppId(2), ResourceVector(60, 600));
  EXPECT_FALSE(tree.OverQuota(*u));
  EXPECT_TRUE(tree.PathOverQuota(*u)) << "t holds 130 against 100";
  // Deficit on the parent is likewise visible from the leaf's path.
  FairShareTree tree2;
  ASSERT_TRUE(tree2.CreateNode("t", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree2.CreateNode("t/u", ResourceVector(0, 0)).ok());
  ASSERT_TRUE(tree2.AssignApp(AppId(1), "t/u").ok());
  tree2.OnWaitingChange(AppId(1), ResourceVector(10, 100));
  const FairShareTree::Node* u2 = tree2.FindNode("t/u");
  EXPECT_FALSE(tree2.HasDeficit(*u2)) << "zero guarantee is satisfied";
  EXPECT_TRUE(tree2.PathHasDeficit(*u2)) << "t is below guarantee + waiting";
}

TEST(FairShareTreeTest, CompetingDeficitIgnoresOwnPath) {
  FairShareTree tree;
  ASSERT_TRUE(tree.CreateNode("t", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree.CreateNode("t/a", ResourceVector(50, 500)).ok());
  ASSERT_TRUE(tree.CreateNode("t/b", ResourceVector(50, 500)).ok());
  ASSERT_TRUE(tree.AssignApp(AppId(1), "t/a").ok());
  ASSERT_TRUE(tree.AssignApp(AppId(2), "t/b").ok());
  // a's waiting puts a AND its ancestor t in deficit — but both lie on
  // app 1's own path, so app 1 sees no *competing* deficit while app 2
  // (sibling subtree) does.
  tree.OnWaitingChange(AppId(1), ResourceVector(10, 100));
  EXPECT_FALSE(tree.AnyCompetingDeficit(AppId(1)));
  EXPECT_TRUE(tree.AnyCompetingDeficit(AppId(2)));
  // An app outside the tree competes with every deficit.
  EXPECT_TRUE(tree.AnyCompetingDeficit(AppId(99)));
}

TEST(FairShareTreeTest, AdmissionStopsAtFirstSaturatedAncestor) {
  FairShareTree tree;
  ASSERT_TRUE(tree.CreateNode("t", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree.CreateNode("t/u", ResourceVector(60, 600)).ok());
  ASSERT_TRUE(tree.CreateNode("x", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree.AssignApp(AppId(1), "t/u").ok());
  ASSERT_TRUE(tree.AssignApp(AppId(2), "x").ok());
  // Within every ancestor's guarantee: always admitted.
  EXPECT_TRUE(tree.AdmitGrant(AppId(1), ResourceVector(60, 600)));
  // Beyond the leaf guarantee but no competing deficit: borrowing OK.
  EXPECT_TRUE(tree.AdmitGrant(AppId(1), ResourceVector(90, 900)));
  // A competing subtree in deficit freezes borrowing at the first
  // saturated ancestor — here the leaf itself.
  tree.OnWaitingChange(AppId(2), ResourceVector(10, 100));
  EXPECT_FALSE(tree.AdmitGrant(AppId(1), ResourceVector(90, 900)));
  EXPECT_TRUE(tree.AdmitGrant(AppId(1), ResourceVector(60, 600)))
      << "inside the guarantee admission never blocks";
}

TEST(FairShareTreeTest, SurplusSharedByWeightAmongActiveChildren) {
  FairShareTree tree;
  ASSERT_TRUE(tree.CreateNode("t", ResourceVector(1000, 10000)).ok());
  FairShareTree::NodeConfig w1;
  w1.weight = 1.0;
  FairShareTree::NodeConfig w3;
  w3.weight = 3.0;
  ASSERT_TRUE(tree.CreateNode("t/a", ResourceVector(200, 2000), w1).ok());
  ASSERT_TRUE(tree.CreateNode("t/b", ResourceVector(200, 2000), w3).ok());
  ASSERT_TRUE(tree.AssignApp(AppId(1), "t/a").ok());
  ASSERT_TRUE(tree.AssignApp(AppId(2), "t/b").ok());
  // Both children active: the parent's unguaranteed pool (1000 - 400 =
  // 600 cpu) splits 1:3.
  tree.OnWaitingChange(AppId(1), ResourceVector(1, 10));
  tree.OnWaitingChange(AppId(2), ResourceVector(1, 10));
  ResourceVector headroom;
  ASSERT_TRUE(tree.ContentionHeadroom(*tree.FindNode("t/a"), &headroom));
  EXPECT_EQ(headroom.cpu(), 200 + 150) << "guarantee + 600/4 surplus";
  ASSERT_TRUE(tree.ContentionHeadroom(*tree.FindNode("t/b"), &headroom));
  EXPECT_EQ(headroom.cpu(), 200 + 450) << "guarantee + 3*600/4 surplus";
  // An idle sibling stops competing: the whole pool goes to the
  // remaining active child.
  tree.OnWaitingChange(AppId(1), ResourceVector(-1, -10));
  ASSERT_TRUE(tree.ContentionHeadroom(*tree.FindNode("t/b"), &headroom));
  EXPECT_EQ(headroom.cpu(), 200 + 600);
  // And an idle child is capped at its bare guarantee.
  ASSERT_TRUE(tree.ContentionHeadroom(*tree.FindNode("t/a"), &headroom));
  EXPECT_EQ(headroom.cpu(), 200);
}

TEST(FairShareTreeTest, HeadroomIsMinOverThePath) {
  FairShareTree tree;
  ASSERT_TRUE(tree.CreateNode("t", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree.CreateNode("t/u", ResourceVector(500, 5000)).ok());
  ASSERT_TRUE(tree.AssignApp(AppId(1), "t/u").ok());
  ASSERT_TRUE(tree.AssignApp(AppId(2), "t").ok());
  tree.OnGrant(AppId(2), ResourceVector(80, 800));
  ResourceVector headroom;
  ASSERT_TRUE(tree.ContentionHeadroom(*tree.FindNode("t/u"), &headroom));
  // The leaf would allow 500 cpu but the parent only has 20 left.
  EXPECT_EQ(headroom.cpu(), 20);
  // No bounded ancestor anywhere -> no clamp at all.
  FairShareTree bare;
  ASSERT_TRUE(bare.EnsureLeaf("free/leaf").ok());
  EXPECT_FALSE(
      bare.ContentionHeadroom(*bare.FindNode("free/leaf"), &headroom));
}

TEST(FairShareTreeTest, EnsureLeafIsIdempotentAndUnbounded) {
  FairShareTree tree;
  ASSERT_TRUE(tree.EnsureLeaf("t/job", 2.0).ok());
  const FairShareTree::Node* leaf = tree.FindNode("t/job");
  ASSERT_NE(leaf, nullptr);
  EXPECT_FALSE(leaf->bounded);
  EXPECT_EQ(leaf->weight, 2.0);
  // Re-ensuring leaves the node untouched (no weight overwrite).
  ASSERT_TRUE(tree.EnsureLeaf("t/job", 7.0).ok());
  EXPECT_EQ(leaf->weight, 2.0);
  EXPECT_EQ(tree.EnsureLeaf("t//job").code(), StatusCode::kInvalidArgument);
}

TEST(FairShareTreeTest, PreemptionBudgetCapsOneSweep) {
  FairShareTree tree;
  FairShareTree::NodeConfig budget2;
  budget2.preemption_budget = 2;
  ASSERT_TRUE(tree.CreateNode("t", ResourceVector(100, 1000), budget2).ok());
  const FairShareTree::Node* t = tree.FindNode("t");
  tree.BeginPreemptionSweep();
  EXPECT_TRUE(tree.PreemptionBudgetAllows(*t));
  tree.ChargePreemption(*t, 1);
  EXPECT_TRUE(tree.PreemptionBudgetAllows(*t));
  tree.ChargePreemption(*t, 1);
  EXPECT_FALSE(tree.PreemptionBudgetAllows(*t)) << "budget exhausted";
  // A new sweep resets the charge.
  tree.BeginPreemptionSweep();
  EXPECT_TRUE(tree.PreemptionBudgetAllows(*t));
}

TEST(FairShareTreeTest, AncestorBudgetCoversTheWholeSubtree) {
  FairShareTree tree;
  FairShareTree::NodeConfig budget1;
  budget1.preemption_budget = 1;
  ASSERT_TRUE(tree.CreateNode("t", ResourceVector(100, 1000), budget1).ok());
  ASSERT_TRUE(tree.CreateNode("t/a", ResourceVector(50, 500)).ok());
  ASSERT_TRUE(tree.CreateNode("t/b", ResourceVector(50, 500)).ok());
  const FairShareTree::Node* a = tree.FindNode("t/a");
  const FairShareTree::Node* b = tree.FindNode("t/b");
  tree.BeginPreemptionSweep();
  EXPECT_TRUE(tree.PreemptionBudgetAllows(*a));
  tree.ChargePreemption(*a, 1);
  // The charge propagated to t: the sibling is denied too.
  EXPECT_FALSE(tree.PreemptionBudgetAllows(*a));
  EXPECT_FALSE(tree.PreemptionBudgetAllows(*b));
}

TEST(FairShareTreeTest, DominantShareRanksSubtrees) {
  FairShareTree tree;
  ASSERT_TRUE(tree.CreateNode("a", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree.CreateNode("b", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree.AssignApp(AppId(1), "a").ok());
  ASSERT_TRUE(tree.AssignApp(AppId(2), "b").ok());
  const ResourceVector capacity(1000, 10000);
  tree.OnGrant(AppId(1), ResourceVector(500, 1000));  // cpu-dominant: 0.5
  tree.OnGrant(AppId(2), ResourceVector(100, 8000));  // mem-dominant: 0.8
  EXPECT_DOUBLE_EQ(tree.DominantShare(*tree.FindNode("a"), capacity), 0.5);
  EXPECT_DOUBLE_EQ(tree.DominantShare(*tree.FindNode("b"), capacity), 0.8);
}

TEST(FairShareTreeTest, ExplainHeadroomMarksFirstSaturatedAncestor) {
  FairShareTree tree;
  ASSERT_TRUE(tree.CreateNode("t", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree.CreateNode("t/u", ResourceVector(60, 600)).ok());
  ASSERT_TRUE(tree.AssignApp(AppId(1), "t/u").ok());
  // Fill the whole parent guarantee: the leaf (guarantee + inherited
  // surplus = 100) and the parent both saturate; the walk is
  // leafward-first so the leaf carries the [clamped] marker.
  tree.OnGrant(AppId(1), ResourceVector(100, 1000));
  auto clamp = tree.ExplainHeadroom(AppId(1), ResourceVector(10, 100));
  ASSERT_NE(clamp.clamped, nullptr);
  EXPECT_EQ(clamp.clamped->path, "t/u");
  EXPECT_EQ(clamp.headroom.cpu(), 0);
  EXPECT_NE(clamp.chain.find("tenant=t/u"), std::string::npos);
  EXPECT_NE(clamp.chain.find("t/u guarantee="), std::string::npos);
  EXPECT_NE(clamp.chain.find("[clamped]"), std::string::npos);
  // The unclamped case: room everywhere, no [clamped] marker.
  tree.OnRevoke(AppId(1), ResourceVector(100, 1000));
  clamp = tree.ExplainHeadroom(AppId(1), ResourceVector(10, 100));
  EXPECT_EQ(clamp.clamped, nullptr);
  EXPECT_EQ(clamp.chain.find("[clamped]"), std::string::npos);
  // An unmanaged app yields the empty chain.
  EXPECT_TRUE(tree.ExplainHeadroom(AppId(9), ResourceVector()).chain.empty());
}

TEST(FairShareTreeTest, ConservationCatchesCookedBooks) {
  FairShareTree tree;
  ASSERT_TRUE(tree.CreateNode("t", ResourceVector(100, 1000)).ok());
  ASSERT_TRUE(tree.CreateNode("t/a", ResourceVector(50, 500)).ok());
  ASSERT_TRUE(tree.AssignApp(AppId(1), "t/a").ok());
  ASSERT_TRUE(tree.AssignApp(AppId(2), "t").ok());
  tree.OnGrant(AppId(1), ResourceVector(30, 300));
  tree.OnGrant(AppId(2), ResourceVector(10, 100));
  tree.OnWaitingChange(AppId(1), ResourceVector(5, 50));
  std::vector<FairShareTree::AppAmount> usage = {
      {AppId(1), ResourceVector(30, 300)},
      {AppId(2), ResourceVector(10, 100)}};
  std::vector<FairShareTree::AppAmount> waiting = {
      {AppId(1), ResourceVector(5, 50)}};
  EXPECT_TRUE(tree.CheckConservation(usage, waiting));
  // A mismatched tally anywhere in the subtree must be flagged.
  usage[0].amount = ResourceVector(31, 300);
  EXPECT_FALSE(tree.CheckConservation(usage, waiting));
  usage[0].amount = ResourceVector(30, 300);
  waiting.clear();
  EXPECT_FALSE(tree.CheckConservation(usage, waiting));
}

}  // namespace
}  // namespace fuxi::resource
