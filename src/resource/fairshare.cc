#include "resource/fairshare.h"

#include <algorithm>
#include <cmath>

namespace fuxi::resource {
namespace {

/// Componentwise minimum (ResourceVector has no Min of its own; the
/// headroom clamp is the only consumer).
cluster::ResourceVector Min(const cluster::ResourceVector& a,
                            const cluster::ResourceVector& b) {
  cluster::ResourceVector out;
  for (cluster::DimensionId d = 0; d < cluster::kMaxDimensions; ++d) {
    out.Set(d, std::min(a.Get(d), b.Get(d)));
  }
  return out;
}

/// Splits "a/b/c" into segments; returns false on malformed paths
/// (empty path, leading/trailing '/', empty segment).
bool SplitPath(const std::string& path, std::vector<std::string>* out) {
  if (path.empty()) return false;
  size_t start = 0;
  while (start <= path.size()) {
    size_t slash = path.find('/', start);
    if (slash == std::string::npos) slash = path.size();
    if (slash == start) return false;
    out->push_back(path.substr(start, slash - start));
    start = slash + 1;
  }
  return true;
}

}  // namespace

Result<FairShareTree::Node*> FairShareTree::EnsurePath(
    const std::string& path) {
  std::vector<std::string> segments;
  if (!SplitPath(path, &segments)) {
    return Status::InvalidArgument("malformed tenant path: " + path);
  }
  Node* parent = &root_;
  std::string prefix;
  for (const std::string& segment : segments) {
    if (!prefix.empty()) prefix += '/';
    prefix += segment;
    auto it = nodes_.find(prefix);
    if (it == nodes_.end()) {
      auto node = std::make_unique<Node>();
      node->path = prefix;
      node->name = segment;
      node->parent = parent;
      node->depth = parent->depth + 1;
      if (node->depth > 1) hierarchical_ = true;
      Node* raw = node.get();
      auto pos = std::upper_bound(
          parent->children.begin(), parent->children.end(), raw,
          [](const Node* a, const Node* b) { return a->name < b->name; });
      parent->children.insert(pos, raw);
      nodes_.emplace(prefix, std::move(node));
      parent = raw;
    } else {
      parent = it->second.get();
    }
  }
  return parent;
}

Status FairShareTree::CreateNode(const std::string& path,
                                 const cluster::ResourceVector& guarantee) {
  return CreateNode(path, guarantee, NodeConfig());
}

Status FairShareTree::CreateNode(const std::string& path,
                                 const cluster::ResourceVector& guarantee,
                                 const NodeConfig& config) {
  auto it = nodes_.find(path);
  if (it != nodes_.end() && it->second->bounded) {
    return Status::AlreadyExists("quota group exists: " + path);
  }
  FUXI_ASSIGN_OR_RETURN(Node * node, EnsurePath(path));
  node->bounded = true;
  node->guarantee = guarantee;
  node->weight = config.weight;
  node->preemption_budget = config.preemption_budget;
  if (config.weight != 1.0 || config.preemption_budget >= 0) {
    hierarchical_ = true;
  }
  UpdateDeficit(node);
  return Status::Ok();
}

Status FairShareTree::EnsureLeaf(const std::string& path, double weight) {
  if (nodes_.count(path) > 0) return Status::Ok();
  FUXI_ASSIGN_OR_RETURN(Node * node, EnsurePath(path));
  node->weight = weight;
  if (weight != 1.0) hierarchical_ = true;
  return Status::Ok();
}

Status FairShareTree::AssignApp(AppId app, const std::string& path) {
  auto it = nodes_.find(path);
  if (it == nodes_.end()) {
    return Status::NotFound("no quota group: " + path);
  }
  if (app_node_.count(app) > 0) {
    return Status::AlreadyExists("app " + app.ToString() +
                                 " already in a quota group");
  }
  app_node_[app] = it->second.get();
  return Status::Ok();
}

Status FairShareTree::RemoveApp(AppId app) {
  if (app_node_.erase(app) == 0) {
    return Status::NotFound("app " + app.ToString() + " not in any group");
  }
  return Status::Ok();
}

const FairShareTree::Node* FairShareTree::NodeOf(AppId app) const {
  auto it = app_node_.find(app);
  return it == app_node_.end() ? nullptr : it->second;
}

FairShareTree::Node* FairShareTree::MutableNodeOf(AppId app) {
  auto it = app_node_.find(app);
  return it == app_node_.end() ? nullptr : it->second;
}

const FairShareTree::Node* FairShareTree::FindNode(
    const std::string& path) const {
  auto it = nodes_.find(path);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<const FairShareTree::Node*> FairShareTree::Nodes() const {
  std::vector<const Node*> out;
  out.reserve(nodes_.size());
  for (const auto& [path, node] : nodes_) out.push_back(node.get());
  return out;
}

void FairShareTree::OnGrant(AppId app, const cluster::ResourceVector& amount) {
  for (Node* n = MutableNodeOf(app); n != nullptr; n = n->parent) {
    n->usage += amount;
    UpdateDeficit(n);
  }
}

void FairShareTree::OnRevoke(AppId app,
                             const cluster::ResourceVector& amount) {
  for (Node* n = MutableNodeOf(app); n != nullptr; n = n->parent) {
    n->usage -= amount;
    n->usage = n->usage.ClampNonNegative();
    UpdateDeficit(n);
  }
}

void FairShareTree::OnWaitingChange(AppId app,
                                    const cluster::ResourceVector& delta) {
  for (Node* n = MutableNodeOf(app); n != nullptr; n = n->parent) {
    n->waiting += delta;
    n->waiting = n->waiting.ClampNonNegative();
    UpdateDeficit(n);
  }
}

bool FairShareTree::OverQuota(const Node& node) const {
  return node.bounded && !node.usage.FitsIn(node.guarantee);
}

bool FairShareTree::HasDeficit(const Node& node) const {
  return node.bounded && !node.waiting.IsZero() &&
         node.usage.FitsIn(node.guarantee) && !(node.usage == node.guarantee);
}

void FairShareTree::UpdateDeficit(Node* node) {
  const bool now = HasDeficit(*node);
  if (now == node->in_deficit) return;
  node->in_deficit = now;
  if (now) {
    ++deficit_count_;
  } else {
    --deficit_count_;
  }
}

bool FairShareTree::IsAncestorOrSelf(const Node* maybe_ancestor,
                                     const Node* node) {
  for (const Node* n = node; n != nullptr; n = n->parent) {
    if (n == maybe_ancestor) return true;
  }
  return false;
}

bool FairShareTree::PathOverQuota(const Node& node) const {
  for (const Node* n = &node; n != nullptr; n = n->parent) {
    if (OverQuota(*n)) return true;
  }
  return false;
}

bool FairShareTree::PathHasDeficit(const Node& node) const {
  for (const Node* n = &node; n != nullptr; n = n->parent) {
    if (n->in_deficit) return true;
  }
  return false;
}

bool FairShareTree::AnyCompetingDeficit(AppId app) const {
  if (deficit_count_ == 0) return false;
  // Some node is starved; the only exculpating case is that every
  // starved node lies on the app's own path.
  const Node* own = NodeOf(app);
  if (own == nullptr) return true;
  size_t on_path = 0;
  for (const Node* n = own; n != nullptr; n = n->parent) {
    if (n->in_deficit) ++on_path;
  }
  return deficit_count_ > on_path;
}

bool FairShareTree::AdmitGrant(AppId app,
                               const cluster::ResourceVector& amount) const {
  const Node* node = NodeOf(app);
  if (node == nullptr) return true;  // quota not configured for this app
  bool any_bounded = false;
  bool fits_all = true;
  for (const Node* n = node; n != nullptr; n = n->parent) {
    if (!n->bounded) continue;
    any_bounded = true;
    if (!(n->usage + amount).FitsIn(n->guarantee)) {
      fits_all = false;
      break;
    }
  }
  if (!any_bounded || fits_all) return true;
  // Borrowing beyond the guarantee is allowed only while every
  // competing subtree's demand is satisfied (paper: idle groups'
  // resources can be exploited; busy groups get their minimum back).
  return !AnyCompetingDeficit(app);
}

cluster::ResourceVector FairShareTree::ContentionCap(const Node& node) const {
  cluster::ResourceVector cap = node.guarantee;
  if (!hierarchical_) return cap;
  // Weight-proportional surplus: a bounded parent's capacity beyond the
  // sum of its bounded children's guarantees is shared among the active
  // children in proportion to their weights.
  const Node* parent = node.parent;
  if (parent == nullptr || !parent->bounded) return cap;
  const bool active = !node.usage.IsZero() || !node.waiting.IsZero();
  if (!active) return cap;
  cluster::ResourceVector pool = parent->guarantee;
  double weight_sum = 0.0;
  for (const Node* sibling : parent->children) {
    if (sibling->bounded) pool -= sibling->guarantee;
    if (!sibling->usage.IsZero() || !sibling->waiting.IsZero()) {
      weight_sum += sibling->weight;
    }
  }
  pool = pool.ClampNonNegative();
  if (weight_sum <= 0.0) return cap;
  const double fraction = node.weight / weight_sum;
  for (cluster::DimensionId d = 0; d < cluster::kMaxDimensions; ++d) {
    const int64_t share =
        static_cast<int64_t>(std::floor(static_cast<double>(pool.Get(d)) *
                                        fraction));
    cap.Set(d, cap.Get(d) + share);
  }
  return cap;
}

bool FairShareTree::ContentionHeadroom(
    const Node& node, cluster::ResourceVector* headroom) const {
  bool any = false;
  cluster::ResourceVector out;
  for (const Node* n = &node; n != nullptr; n = n->parent) {
    if (!n->bounded) continue;
    const cluster::ResourceVector h =
        (ContentionCap(*n) - n->usage).ClampNonNegative();
    out = any ? Min(out, h) : h;
    any = true;
  }
  if (any) *headroom = out;
  return any;
}

double FairShareTree::DominantShare(
    const Node& node, const cluster::ResourceVector& capacity) const {
  return node.usage.DominantShare(capacity);
}

bool FairShareTree::PreemptionBudgetAllows(const Node& victim) const {
  for (const Node* n = &victim; n != nullptr; n = n->parent) {
    if (n->preemption_budget >= 0 &&
        SweepChargeOf(*n) >= n->preemption_budget) {
      return false;
    }
  }
  return true;
}

void FairShareTree::ChargePreemption(const Node& victim,
                                     int64_t units) const {
  for (const Node* n = &victim; n != nullptr; n = n->parent) {
    if (n->sweep_id != sweep_counter_) {
      n->sweep_id = sweep_counter_;
      n->sweep_charge = 0;
    }
    n->sweep_charge += units;
  }
}

FairShareTree::HeadroomClamp FairShareTree::ExplainHeadroom(
    AppId app, const cluster::ResourceVector& unit) const {
  HeadroomClamp out;
  const Node* node = NodeOf(app);
  if (node == nullptr) return out;
  out.chain = "tenant=" + node->path;
  bool any = false;
  for (const Node* n = node; n != nullptr; n = n->parent) {
    if (!n->bounded) continue;
    const cluster::ResourceVector h =
        (ContentionCap(*n) - n->usage).ClampNonNegative();
    out.headroom = any ? Min(out.headroom, h) : h;
    any = true;
    const bool saturated = unit.IsZero() ? h.IsZero() : h.DivideBy(unit) == 0;
    out.chain += " | " + n->path + " guarantee=(" + n->guarantee.ToString() +
                 ") usage=(" + n->usage.ToString() + ") headroom=(" +
                 h.ToString() + ")";
    if (saturated && out.clamped == nullptr) {
      out.clamped = n;
      out.chain += " [clamped]";
    }
  }
  return out;
}

bool FairShareTree::CheckConservation(
    std::span<const AppAmount> app_usage,
    std::span<const AppAmount> app_waiting) const {
  root_.audit_usage = root_.audit_waiting = cluster::ResourceVector();
  for (const auto& [path, node] : nodes_) {
    node->audit_usage = node->audit_waiting = cluster::ResourceVector();
  }
  // Each tally is charged to its app's node and every ancestor: the
  // root aggregates everything.
  for (const AppAmount& entry : app_usage) {
    for (const Node* n = NodeOf(entry.app); n != nullptr; n = n->parent) {
      n->audit_usage += entry.amount;
    }
  }
  for (const AppAmount& entry : app_waiting) {
    for (const Node* n = NodeOf(entry.app); n != nullptr; n = n->parent) {
      n->audit_waiting += entry.amount;
    }
  }
  size_t deficits = 0;
  auto balanced = [&](const Node& node) {
    if (node.in_deficit) ++deficits;
    return node.usage == node.audit_usage &&
           node.waiting == node.audit_waiting &&
           node.in_deficit == HasDeficit(node);
  };
  if (!balanced(root_)) return false;
  for (const auto& [path, node] : nodes_) {
    if (!balanced(*node)) return false;
  }
  return deficits == deficit_count_;
}

}  // namespace fuxi::resource
