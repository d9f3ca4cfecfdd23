#ifndef FUXI_RESOURCE_FAIRSHARE_H_
#define FUXI_RESOURCE_FAIRSHARE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/resource_vector.h"
#include "common/ids.h"
#include "common/status.h"

namespace fuxi::resource {

/// Hierarchical multi-tenant fair share (paper §3.4, generalized).
///
/// The paper's flat quota groups become a weighted tree of tenant
/// nodes ("tenant/org/user/..."). Every node can carry a *minimum
/// guarantee* (the paper's quota semantics: borrowable while idle,
/// reclaimable via preemption when demanded), a *weight* steering how
/// the parent's surplus beyond the children's guarantees is shared,
/// and a *preemption budget* capping how many units one preemption
/// sweep may take back from the node's subtree. Usage and waiting
/// demand aggregate bottom-up along the path, so every predicate about
/// a node is a statement about its whole subtree.
///
/// Compatibility contract: a tree configured exclusively through
/// `CreateNode` with single-segment paths, default weight and no
/// budget — exactly what Scheduler::CreateQuotaGroup produces — is
/// *structurally flat* (`hierarchical()` is false) and every predicate
/// below degenerates to the flat QuotaManager formula, bit for bit. The golden replays, grant-log digests and the
/// scheduler differential suite pin this equivalence; the
/// weight/surplus/DRF/budget machinery only engages once a genuinely
/// hierarchical configuration (multi-segment path, non-default weight,
/// or a budget) exists.
class FairShareTree {
 public:
  struct Node {
    std::string path;  ///< full path from the root, e.g. "t1/org2"
    std::string name;  ///< last path segment
    Node* parent = nullptr;    ///< nullptr only for the root
    std::vector<Node*> children;  ///< name-sorted
    int depth = 0;     ///< root = 0, its children = 1, ...
    double weight = 1.0;
    /// True when an explicit guarantee was configured. Implicit
    /// intermediate nodes are unbounded: never over quota, never in
    /// deficit, never clamping.
    bool bounded = false;
    cluster::ResourceVector guarantee;  ///< minimum guarantee
    cluster::ResourceVector usage;      ///< subtree currently granted
    cluster::ResourceVector waiting;    ///< subtree queued unmet demand
    /// Units one preemption sweep may revoke from this subtree;
    /// -1 = unlimited (the legacy behaviour).
    int64_t preemption_budget = -1;
    /// Cached HasDeficit verdict, kept in sync by the accounting hooks
    /// so AnyCompetingDeficit is O(depth) instead of O(nodes).
    bool in_deficit = false;
    /// Per-sweep preemption charge (see BeginPreemptionSweep).
    mutable uint64_t sweep_id = 0;
    mutable int64_t sweep_charge = 0;
    /// CheckConservation's recomputed subtree sums, kept on the node so
    /// an audit allocates nothing.
    mutable cluster::ResourceVector audit_usage;
    mutable cluster::ResourceVector audit_waiting;
  };

  /// One application's share of a per-app tally (CheckConservation).
  struct AppAmount {
    AppId app;
    cluster::ResourceVector amount;
  };

  struct NodeConfig {
    double weight = 1.0;
    int64_t preemption_budget = -1;
  };

  // --- configuration ----------------------------------------------------

  /// Creates (or binds) the node at `path` with the given minimum
  /// guarantee. Missing ancestors are created as unbounded structural
  /// nodes; configuring an ancestor after a descendant binds the
  /// existing structural node. Re-binding an already-bounded node is
  /// AlreadyExists (the legacy duplicate-group error).
  Status CreateNode(const std::string& path,
                    const cluster::ResourceVector& guarantee);
  Status CreateNode(const std::string& path,
                    const cluster::ResourceVector& guarantee,
                    const NodeConfig& config);

  /// Ensures an *unbounded* leaf exists at `path` (used by the master
  /// to materialize per-job tenant leaves from submissions). Existing
  /// nodes are left untouched.
  Status EnsureLeaf(const std::string& path, double weight = 1.0);

  /// Binds `app` to the node at `path` (which must exist).
  Status AssignApp(AppId app, const std::string& path);
  Status RemoveApp(AppId app);
  bool HasApp(AppId app) const { return app_node_.count(app) > 0; }

  /// Node of `app`; nullptr when unbound.
  const Node* NodeOf(AppId app) const;
  const Node* FindNode(const std::string& path) const;
  const Node& root() const { return root_; }
  /// Every configured node in path (lexicographic) order — for a flat
  /// tree this is the legacy name-sorted groups() listing.
  std::vector<const Node*> Nodes() const;
  size_t node_count() const { return nodes_.size(); }

  /// True once the configuration left the flat legacy shape: any
  /// multi-segment path, non-default weight, or preemption budget.
  bool hierarchical() const { return hierarchical_; }

  // --- accounting hooks (called by the scheduler) -----------------------

  void OnGrant(AppId app, const cluster::ResourceVector& amount);
  void OnRevoke(AppId app, const cluster::ResourceVector& amount);
  void OnWaitingChange(AppId app, const cluster::ResourceVector& delta);

  // --- predicates (flat tree == QuotaManager, bit for bit) --------------

  /// Node usage exceeds its guarantee on some dimension (borrowing).
  /// Unbounded nodes are never over quota.
  bool OverQuota(const Node& node) const;

  /// Node has queued demand and is still below its guarantee — it is
  /// entitled to reclaim. Unbounded nodes never claim a deficit.
  bool HasDeficit(const Node& node) const;

  /// Some bounded ancestor-or-self of `node` is over its guarantee —
  /// the subtree holds borrowed resources somewhere along its path.
  bool PathOverQuota(const Node& node) const;

  /// Some bounded ancestor-or-self of `node` has a deficit — the path
  /// is entitled to reclaim.
  bool PathHasDeficit(const Node& node) const;

  /// A bounded node *off* the app's path has a deficit: the signal that
  /// freezes borrowing. For a flat tree this is exactly the legacy
  /// AnyOtherGroupHasDeficit.
  bool AnyCompetingDeficit(AppId app) const;

  /// Whether granting `amount` to `app` is admissible: always while the
  /// grant fits every bounded ancestor's guarantee, otherwise only when
  /// no competing node has a deficit.
  bool AdmitGrant(AppId app, const cluster::ResourceVector& amount) const;

  /// Contention headroom of the app's path: the componentwise minimum,
  /// over bounded ancestors-or-self, of (cap − usage)⁺ where cap is the
  /// node's guarantee plus — in hierarchical trees only — its
  /// weight-proportional share of the parent's unguaranteed surplus.
  /// Returns false (no clamp) when no ancestor is bounded. For a flat
  /// tree this is the legacy (quota − usage)⁺ clamp.
  bool ContentionHeadroom(const Node& node,
                          cluster::ResourceVector* headroom) const;

  /// Dominant resource share of the node's subtree against `capacity`
  /// (DRF arbitration: preemption takes from the richest subtree first).
  double DominantShare(const Node& node,
                       const cluster::ResourceVector& capacity) const;

  // --- preemption budgets ----------------------------------------------

  /// Opens a new preemption sweep (resets the per-sweep charge lazily).
  void BeginPreemptionSweep() const { ++sweep_counter_; }
  /// True while every budgeted ancestor-or-self of `victim` still has
  /// budget left in the current sweep. Always true with no budgets.
  bool PreemptionBudgetAllows(const Node& victim) const;
  /// Charges `units` revoked from `victim` against its whole path.
  void ChargePreemption(const Node& victim, int64_t units) const;

  // --- provenance -------------------------------------------------------

  /// The hierarchical rejection chain for the app's path: which
  /// ancestor clamps the next `unit`, and by how much. `clamped` is the
  /// first saturated ancestor walking leafward→rootward (nullptr when
  /// nothing clamps); `chain` is the human-readable walk rendered into
  /// kQuotaHeadroom audit notes for `fuxi explain --tenant`.
  struct HeadroomClamp {
    const Node* clamped = nullptr;
    cluster::ResourceVector headroom;
    std::string chain;
  };
  HeadroomClamp ExplainHeadroom(AppId app,
                                const cluster::ResourceVector& unit) const;

  // --- invariants -------------------------------------------------------

  /// Per-node conservation: every node's stored usage/waiting equals
  /// the sum of the per-app tallies over its subtree (apps without a
  /// node are ignored, an app absent from a tally counts as zero), and
  /// the cached deficit flags match a recompute. Each tally names an
  /// app at most once.
  bool CheckConservation(std::span<const AppAmount> app_usage,
                         std::span<const AppAmount> app_waiting) const;

 private:
  /// The audit-equivalence test's window into the books.
  friend struct SchedulerAuditPeer;

  Node* MutableNodeOf(AppId app);
  /// Creates the node at `path` (and any missing ancestors) as
  /// unbounded structural nodes; returns it. Fails on malformed paths.
  Result<Node*> EnsurePath(const std::string& path);
  /// True when `maybe_ancestor` is `node` or one of its ancestors.
  static bool IsAncestorOrSelf(const Node* maybe_ancestor, const Node* node);
  /// Recomputes the cached deficit flag after a usage/waiting change.
  void UpdateDeficit(Node* node);
  /// The node's contention cap: guarantee plus (hierarchical only) its
  /// weight share of the parent's unguaranteed surplus.
  cluster::ResourceVector ContentionCap(const Node& node) const;
  int64_t SweepChargeOf(const Node& node) const {
    return node.sweep_id == sweep_counter_ ? node.sweep_charge : 0;
  }

  Node root_;
  /// path → node; map order is the deterministic listing order.
  std::map<std::string, std::unique_ptr<Node>> nodes_;
  std::unordered_map<AppId, Node*> app_node_;
  bool hierarchical_ = false;
  /// Bounded nodes currently in deficit (cached; see Node::in_deficit).
  size_t deficit_count_ = 0;
  mutable uint64_t sweep_counter_ = 0;
};

}  // namespace fuxi::resource

#endif  // FUXI_RESOURCE_FAIRSHARE_H_
