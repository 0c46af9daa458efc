#include "birch/acf_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.h"

namespace dar {

namespace {

constexpr double kMinThreshold = 1e-12;

// Relative tolerance when comparing floating-point summary sums that were
// accumulated in different association orders (incremental AddPoint along
// the insert path vs. a bottom-up re-merge).
constexpr double kCfCompareTolerance = 1e-6;

bool ApproxEqual(double a, double b) {
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kCfCompareTolerance * scale;
}

}  // namespace

// When built with -DDAR_VALIDATE_INVARIANTS, every mutating operation
// re-validates the whole tree before returning (skipped mid-rebuild, when
// the tree is transiently inconsistent by design).
#ifdef DAR_VALIDATE_INVARIANTS
#define DAR_VALIDATE_TREE()                                  \
  do {                                                       \
    if (!in_rebuild_) DAR_RETURN_IF_ERROR(ValidateInvariants()); \
  } while (false)
#else
#define DAR_VALIDATE_TREE() \
  do {                      \
  } while (false)
#endif

AcfTree::AcfTree(std::shared_ptr<const AcfLayout> layout, size_t own_part,
                 AcfTreeOptions options)
    : layout_(std::move(layout)),
      own_part_(own_part),
      options_(options),
      threshold_(options.initial_threshold),
      root_(std::make_unique<Node>()) {
  DAR_CHECK(layout_ != nullptr);
  DAR_CHECK_LT(own_part_, layout_->num_parts());
  DAR_CHECK_GE(options_.branching_factor, 2);
  DAR_CHECK_GE(options_.leaf_capacity, 1);
  acf_bytes_estimate_ = layout_->ApproxAcfBytes();
}

std::unique_ptr<AcfTree::Node> AcfTree::CloneNode(const Node& node) const {
  auto copy = std::make_unique<Node>();
  copy->is_leaf = node.is_leaf;
  copy->entries = node.entries;  // Acf is value-copyable (shared layout)
  copy->children.reserve(node.children.size());
  for (const ChildRef& ref : node.children) {
    copy->children.push_back(ChildRef{ref.cf, CloneNode(*ref.child)});
  }
  return copy;
}

std::unique_ptr<AcfTree> AcfTree::Clone() const {
  auto copy = std::make_unique<AcfTree>(layout_, own_part_, options_);
  copy->threshold_ = threshold_;
  copy->root_ = CloneNode(*root_);
  copy->outlier_buffer_ = outlier_buffer_;
  copy->outliers_ = outliers_;
  copy->rebuild_count_ = rebuild_count_;
  copy->split_count_ = split_count_;
  copy->points_inserted_ = points_inserted_;
  copy->num_nodes_ = num_nodes_;
  copy->num_leaf_entries_ = num_leaf_entries_;
  return copy;
}

Status AcfTree::InsertPoint(const PartedRow& row) {
  if (row.size() != layout_->num_parts()) {
    return Status::InvalidArgument(
        "parted row has " + std::to_string(row.size()) + " parts, expected " +
        std::to_string(layout_->num_parts()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].size() != layout_->parts[i].dim) {
      return Status::InvalidArgument("part " + std::to_string(i) +
                                     " has wrong dimension");
    }
    for (double v : row[i]) {
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "non-finite value in part " + std::to_string(i) +
            "; CF summaries require finite coordinates");
      }
    }
  }
  InsertOutcome out = InsertPointRec(root_.get(), row);
  if (out.split) GrowRoot(std::move(out.sibling));
  ++points_inserted_;

  if (in_rebuild_) return Status::OK();
  int rebuilds = 0;
  while (ApproxBytesNow() > options_.memory_budget_bytes) {
    if (++rebuilds > options_.max_rebuilds_per_insert) {
      return Status::ResourceExhausted(
          "ACF-tree cannot fit in " +
          std::to_string(options_.memory_budget_bytes) +
          " bytes after " + std::to_string(rebuilds - 1) + " rebuilds");
    }
    DAR_RETURN_IF_ERROR(Rebuild());
  }
  DAR_VALIDATE_TREE();
  return Status::OK();
}

Status AcfTree::InsertSummary(Acf acf) {
  if (acf.layout_ptr().get() != layout_.get() ||
      acf.own_part() != own_part_) {
    return Status::InvalidArgument(
        "summary layout/part does not match this tree");
  }
  if (acf.n() <= 0) {
    return Status::InvalidArgument("cannot insert an empty summary");
  }
  int64_t mass = acf.n();
  InsertOutcome out = InsertSummaryRec(root_.get(), std::move(acf));
  if (out.split) GrowRoot(std::move(out.sibling));
  points_inserted_ += in_rebuild_ ? 0 : mass;

  if (in_rebuild_) return Status::OK();
  int rebuilds = 0;
  while (ApproxBytesNow() > options_.memory_budget_bytes) {
    if (++rebuilds > options_.max_rebuilds_per_insert) {
      return Status::ResourceExhausted("ACF-tree over memory budget");
    }
    DAR_RETURN_IF_ERROR(Rebuild());
  }
  DAR_VALIDATE_TREE();
  return Status::OK();
}

AcfTree::InsertOutcome AcfTree::InsertPointRec(Node* node,
                                               const PartedRow& row) {
  const std::vector<double>& own = row[own_part_];
  if (node->is_leaf) {
    // Find the closest existing cluster.
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node->entries.size(); ++i) {
      double d = PointClusterDistance(own, node->entries[i].cf());
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    // Absorb only if the merged diameter stays within the threshold AND
    // the point itself is within the threshold of the centroid. The second
    // condition guards against mass dilution: for a heavy cluster the
    // average pairwise diameter moves by only O(D^2/N) when one point at
    // distance D is added, so the diameter test alone would let large
    // clusters swallow arbitrarily distant points.
    if (!node->entries.empty() &&
        node->entries[best].cf().DiameterWithPoint(own) <= threshold_ &&
        best_d <= threshold_) {
      node->entries[best].AddRow(row);
      return {};
    }
    // Start a new cluster.
    Acf fresh(layout_, own_part_);
    fresh.AddRow(row);
    node->entries.push_back(std::move(fresh));
    ++num_leaf_entries_;
    if (node->entries.size() <=
        static_cast<size_t>(options_.leaf_capacity)) {
      return {};
    }
    return {true, SplitNode(node)};
  }

  // Internal node: descend into the closest child.
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node->children.size(); ++i) {
    double d = PointClusterDistance(own, node->children[i].cf);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  InsertOutcome below = InsertPointRec(node->children[best].child.get(), row);
  if (!below.split) {
    node->children[best].cf.AddPoint(own);
  } else {
    node->children[best].cf = ComputeNodeCf(*node->children[best].child);
    ChildRef fresh{ComputeNodeCf(*below.sibling), std::move(below.sibling)};
    node->children.push_back(std::move(fresh));
    if (node->children.size() >
        static_cast<size_t>(options_.branching_factor)) {
      return {true, SplitNode(node)};
    }
  }
  return {};
}

AcfTree::InsertOutcome AcfTree::InsertSummaryRec(Node* node, Acf&& acf) {
  if (node->is_leaf) {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node->entries.size(); ++i) {
      double d = ClusterDistance(acf.cf(), node->entries[i].cf(),
                                 ClusterMetric::kD0Centroid);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    // Same dual test as for points (diameter + centroid distance), so
    // reinsertion during rebuilds cannot dilute heavy clusters either.
    if (!node->entries.empty() &&
        node->entries[best].cf().DiameterWithMerge(acf.cf()) <= threshold_ &&
        best_d <= threshold_) {
      node->entries[best].Merge(acf);
      return {};
    }
    node->entries.push_back(std::move(acf));
    ++num_leaf_entries_;
    if (node->entries.size() <=
        static_cast<size_t>(options_.leaf_capacity)) {
      return {};
    }
    return {true, SplitNode(node)};
  }

  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < node->children.size(); ++i) {
    double d = ClusterDistance(acf.cf(), node->children[i].cf,
                               ClusterMetric::kD0Centroid);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  const CfVector acf_cf = acf.cf();  // keep a copy; acf may be moved below
  InsertOutcome below =
      InsertSummaryRec(node->children[best].child.get(), std::move(acf));
  if (!below.split) {
    node->children[best].cf.Merge(acf_cf);
  } else {
    node->children[best].cf = ComputeNodeCf(*node->children[best].child);
    ChildRef fresh{ComputeNodeCf(*below.sibling), std::move(below.sibling)};
    node->children.push_back(std::move(fresh));
    if (node->children.size() >
        static_cast<size_t>(options_.branching_factor)) {
      return {true, SplitNode(node)};
    }
  }
  return {};
}

std::unique_ptr<AcfTree::Node> AcfTree::SplitNode(Node* node) {
  auto sibling = std::make_unique<Node>();
  sibling->is_leaf = node->is_leaf;
  ++num_nodes_;
  ++split_count_;

  if (node->is_leaf) {
    // Seed with the farthest pair of entry centroids, then assign each
    // entry to the closer seed.
    size_t n = node->entries.size();
    DAR_CHECK_GE(n, 2u);
    size_t sa = 0, sb = 1;
    double best = -1;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        double d = ClusterDistance(node->entries[i].cf(),
                                   node->entries[j].cf(),
                                   ClusterMetric::kD0Centroid);
        if (d > best) {
          best = d;
          sa = i;
          sb = j;
        }
      }
    }
    const CfVector seed_a = node->entries[sa].cf();
    const CfVector seed_b = node->entries[sb].cf();
    std::vector<Acf> keep, move_out;
    for (size_t i = 0; i < n; ++i) {
      if (i == sa) {
        keep.push_back(std::move(node->entries[i]));
        continue;
      }
      if (i == sb) {
        move_out.push_back(std::move(node->entries[i]));
        continue;
      }
      double da = ClusterDistance(node->entries[i].cf(), seed_a,
                                  ClusterMetric::kD0Centroid);
      double db = ClusterDistance(node->entries[i].cf(), seed_b,
                                  ClusterMetric::kD0Centroid);
      if (da <= db) {
        keep.push_back(std::move(node->entries[i]));
      } else {
        move_out.push_back(std::move(node->entries[i]));
      }
    }
    node->entries = std::move(keep);
    sibling->entries = std::move(move_out);
  } else {
    size_t n = node->children.size();
    DAR_CHECK_GE(n, 2u);
    size_t sa = 0, sb = 1;
    double best = -1;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        double d = ClusterDistance(node->children[i].cf, node->children[j].cf,
                                   ClusterMetric::kD0Centroid);
        if (d > best) {
          best = d;
          sa = i;
          sb = j;
        }
      }
    }
    const CfVector seed_a = node->children[sa].cf;
    const CfVector seed_b = node->children[sb].cf;
    std::vector<ChildRef> keep, move_out;
    for (size_t i = 0; i < n; ++i) {
      if (i == sa) {
        keep.push_back(std::move(node->children[i]));
        continue;
      }
      if (i == sb) {
        move_out.push_back(std::move(node->children[i]));
        continue;
      }
      double da = ClusterDistance(node->children[i].cf, seed_a,
                                  ClusterMetric::kD0Centroid);
      double db = ClusterDistance(node->children[i].cf, seed_b,
                                  ClusterMetric::kD0Centroid);
      if (da <= db) {
        keep.push_back(std::move(node->children[i]));
      } else {
        move_out.push_back(std::move(node->children[i]));
      }
    }
    node->children = std::move(keep);
    sibling->children = std::move(move_out);
  }
  return sibling;
}

CfVector AcfTree::ComputeNodeCf(const Node& node) const {
  const PartSpec& spec = layout_->parts[own_part_];
  CfVector cf(spec.dim, spec.metric);
  if (node.is_leaf) {
    for (const auto& e : node.entries) cf.Merge(e.cf());
  } else {
    for (const auto& c : node.children) cf.Merge(c.cf);
  }
  return cf;
}

void AcfTree::GrowRoot(std::unique_ptr<Node> sibling) {
  auto new_root = std::make_unique<Node>();
  new_root->is_leaf = false;
  ChildRef left{ComputeNodeCf(*root_), std::move(root_)};
  ChildRef right{ComputeNodeCf(*sibling), std::move(sibling)};
  new_root->children.push_back(std::move(left));
  new_root->children.push_back(std::move(right));
  root_ = std::move(new_root);
  ++num_nodes_;
}

double AcfTree::NextThreshold() const {
  // Within each leaf, the cheapest merge is between the closest pair of
  // entries; take the median of those over all leaves so a substantial
  // fraction of clusters merge after the rebuild (BIRCH §4.2 heuristic).
  std::vector<double> candidates;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->is_leaf) {
      if (node->entries.size() < 2) continue;
      double best = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < node->entries.size(); ++i) {
        for (size_t j = i + 1; j < node->entries.size(); ++j) {
          best = std::min(best, node->entries[i].cf().DiameterWithMerge(
                                    node->entries[j].cf()));
        }
      }
      candidates.push_back(best);
    } else {
      for (const auto& c : node->children) stack.push_back(c.child.get());
    }
  }
  double data_driven = 0;
  if (!candidates.empty()) {
    size_t mid = candidates.size() / 2;
    std::nth_element(candidates.begin(), candidates.begin() + mid,
                     candidates.end());
    data_driven = candidates[mid];
  } else {
    // Degenerate tree shapes (e.g. leaf capacity 1) never co-locate two
    // entries in a leaf; sample a handful of entries globally so the
    // threshold still jumps to the data scale instead of crawling up by
    // the growth factor alone.
    std::vector<Acf> sample;
    CollectLeafEntriesConst(root_.get(), sample);
    size_t limit = std::min<size_t>(sample.size(), 48);
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < limit; ++i) {
      for (size_t j = i + 1; j < limit; ++j) {
        best = std::min(best,
                        sample[i].cf().DiameterWithMerge(sample[j].cf()));
      }
    }
    if (limit >= 2) data_driven = best;
  }
  return std::max({threshold_ * options_.threshold_growth, data_driven,
                   kMinThreshold});
}

Status AcfTree::Rebuild() {
  double next = NextThreshold();
  std::vector<Acf> entries;
  CollectLeafEntries(root_.get(), entries);

  threshold_ = next;
  root_ = std::make_unique<Node>();
  num_nodes_ = 1;
  num_leaf_entries_ = 0;
  ++rebuild_count_;

  in_rebuild_ = true;
  Status status = Status::OK();
  for (auto& e : entries) {
    if (options_.outlier_entry_min_n > 0 &&
        e.n() < options_.outlier_entry_min_n) {
      outlier_buffer_.push_back(std::move(e));
      continue;
    }
    status = InsertSummary(std::move(e));
    if (!status.ok()) break;
  }
  in_rebuild_ = false;
  if (!status.ok()) return status;
  DAR_VALIDATE_TREE();
  return status;
}

void AcfTree::CollectLeafEntries(Node* node, std::vector<Acf>& out) {
  if (node->is_leaf) {
    for (auto& e : node->entries) out.push_back(std::move(e));
    node->entries.clear();
    return;
  }
  for (auto& c : node->children) CollectLeafEntries(c.child.get(), out);
}

void AcfTree::CollectLeafEntriesConst(const Node* node,
                                      std::vector<Acf>& out) const {
  if (node->is_leaf) {
    for (const auto& e : node->entries) out.push_back(e);
    return;
  }
  for (const auto& c : node->children) {
    CollectLeafEntriesConst(c.child.get(), out);
  }
}

Status AcfTree::FinishScan() {
  std::vector<Acf> pending = std::move(outlier_buffer_);
  outlier_buffer_.clear();
  for (auto& acf : pending) {
    // Walk down to the most promising leaf; absorb only if the merge keeps
    // the diameter within the threshold, else the cluster is a confirmed
    // outlier.
    Node* node = root_.get();
    std::vector<CfVector*> path;
    while (!node->is_leaf) {
      size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < node->children.size(); ++i) {
        double d = ClusterDistance(acf.cf(), node->children[i].cf,
                                   ClusterMetric::kD0Centroid);
        if (d < best_d) {
          best_d = d;
          best = i;
        }
      }
      path.push_back(&node->children[best].cf);
      node = node->children[best].child.get();
    }
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node->entries.size(); ++i) {
      double d = ClusterDistance(acf.cf(), node->entries[i].cf(),
                                 ClusterMetric::kD0Centroid);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    if (!node->entries.empty() &&
        node->entries[best].cf().DiameterWithMerge(acf.cf()) <= threshold_ &&
        best_d <= threshold_) {
      const CfVector acf_cf = acf.cf();
      node->entries[best].Merge(acf);
      for (CfVector* cf : path) cf->Merge(acf_cf);
    } else {
      outliers_.push_back(std::move(acf));
    }
  }
  DAR_VALIDATE_TREE();
  return Status::OK();
}

Status AcfTree::MergeFrom(const AcfTree& other) {
  if (own_part_ != other.own_part_) {
    return Status::InvalidArgument(
        "cannot merge ACF-trees over different attribute sets (part " +
        std::to_string(own_part_) + " vs " +
        std::to_string(other.own_part_) + ")");
  }
  if (!LayoutsEquivalent(*layout_, *other.layout_)) {
    return Status::InvalidArgument(
        "cannot merge ACF-trees with structurally different layouts");
  }
  const bool rehome = other.layout_.get() != layout_.get();

  // Merge under the looser of the two thresholds so clusters that either
  // shard considered coherent stay absorbable; re-insertion below may raise
  // it further through the usual rebuild loop.
  threshold_ = std::max(threshold_, other.threshold_);

  std::vector<Acf> entries;
  other.CollectLeafEntriesConst(other.root_.get(), entries);
  for (auto& e : entries) {
    DAR_RETURN_IF_ERROR(
        InsertSummary(rehome ? e.WithLayout(layout_) : std::move(e)));
  }
  // Outliers (paged-out and confirmed alike) get a fresh FinishScan chance
  // under the merged threshold. InsertSummary accounts inserted mass into
  // points_inserted_; the buffered outliers bypass it, so account manually
  // to keep TotalMass() == points inserted.
  for (const std::vector<Acf>* src : {&other.outlier_buffer_, &other.outliers_}) {
    for (const Acf& acf : *src) {
      points_inserted_ += acf.n();
      outlier_buffer_.push_back(rehome ? acf.WithLayout(layout_) : acf);
    }
  }
  rebuild_count_ += other.rebuild_count_;
  split_count_ += other.split_count_;
  DAR_VALIDATE_TREE();
  return Status::OK();
}

std::vector<Acf> AcfTree::ExtractClusters() const {
  std::vector<Acf> out;
  CollectLeafEntriesConst(root_.get(), out);
  return out;
}

Result<size_t> AcfTree::NearestClusterIndex(
    std::span<const double> own_values) const {
  if (num_leaf_entries_ == 0) {
    return Status::NotFound("tree has no clusters");
  }
  // Descend to the leaf the insertion path would reach.
  const Node* node = root_.get();
  while (!node->is_leaf) {
    size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node->children.size(); ++i) {
      double d = PointClusterDistance(own_values, node->children[i].cf);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    node = node->children[best].child.get();
  }
  const Acf* target = nullptr;
  double best_d = std::numeric_limits<double>::infinity();
  for (const auto& e : node->entries) {
    double d = PointClusterDistance(own_values, e.cf());
    if (d < best_d) {
      best_d = d;
      target = &e;
    }
  }
  DAR_CHECK(target != nullptr);
  // Map the entry pointer to its DFS (ExtractClusters) index.
  size_t index = 0;
  bool found = false;
  // Recursive DFS matching CollectLeafEntriesConst order.
  auto dfs = [&](auto&& self, const Node* n) -> void {
    if (found) return;
    if (n->is_leaf) {
      for (const auto& e : n->entries) {
        if (&e == target) {
          found = true;
          return;
        }
        ++index;
      }
      return;
    }
    for (const auto& c : n->children) {
      self(self, c.child.get());
      if (found) return;
    }
  };
  dfs(dfs, root_.get());
  DAR_CHECK(found);
  return index;
}

size_t AcfTree::CountNodes(const Node* node) const {
  if (node->is_leaf) return 1;
  size_t n = 1;
  for (const auto& c : node->children) n += CountNodes(c.child.get());
  return n;
}

size_t AcfTree::ApproxBytesNow() const {
  const PartSpec& spec = layout_->parts[own_part_];
  size_t internal_entry =
      sizeof(ChildRef) + sizeof(CfVector) + 4 * spec.dim * sizeof(double);
  size_t node_bytes =
      sizeof(Node) + options_.branching_factor * internal_entry;
  // The outlier buffer is conceptually paged out to disk (§4.3.1) and does
  // not count against the in-memory budget.
  return num_nodes_ * node_bytes + num_leaf_entries_ * acf_bytes_estimate_;
}

int64_t AcfTree::TotalMass() const {
  int64_t mass = 0;
  for (const auto& e : ExtractClusters()) mass += e.n();
  for (const auto& e : outlier_buffer_) mass += e.n();
  for (const auto& e : outliers_) mass += e.n();
  return mass;
}

Status AcfTree::ValidateCfSummary(const CfVector& cf, size_t expect_dim,
                                  MetricKind expect_metric,
                                  const std::string& path) const {
  if (cf.dim() != expect_dim) {
    return Status::Internal(path + ": CF has dim " +
                            std::to_string(cf.dim()) + ", expected " +
                            std::to_string(expect_dim));
  }
  if (cf.metric() != expect_metric) {
    return Status::Internal(path + ": CF metric does not match its part");
  }
  if (cf.n() < 0) {
    return Status::Internal(path + ": negative tuple count " +
                            std::to_string(cf.n()));
  }
  for (size_t d = 0; d < cf.dim(); ++d) {
    if (cf.ss()[d] < 0) {
      return Status::Internal(path + ": negative squared-sum term ss[" +
                              std::to_string(d) +
                              "] = " + std::to_string(cf.ss()[d]));
    }
  }
  if (cf.n() > 0) {
    for (size_t d = 0; d < cf.dim(); ++d) {
      if (cf.min()[d] > cf.max()[d]) {
        return Status::Internal(path + ": min > max on dimension " +
                                std::to_string(d));
      }
      double centroid = cf.ls()[d] / static_cast<double>(cf.n());
      double span =
          kCfCompareTolerance *
          std::max({1.0, std::fabs(cf.min()[d]), std::fabs(cf.max()[d])});
      if (centroid < cf.min()[d] - span || centroid > cf.max()[d] + span) {
        return Status::Internal(path + ": centroid " +
                                std::to_string(centroid) +
                                " outside bounding box on dimension " +
                                std::to_string(d));
      }
    }
    // Cauchy-Schwarz on the moments: N * sum(ss) >= |LS|^2. A violation
    // means the summary cannot describe any real point set, so every
    // diameter/radius derived from it is garbage.
    double lhs = static_cast<double>(cf.n()) * cf.SsSum();
    double rhs = cf.LsSquaredNorm();
    if (lhs < rhs && !ApproxEqual(lhs, rhs)) {
      return Status::Internal(path + ": moment inequality violated (N*SS = " +
                              std::to_string(lhs) + " < |LS|^2 = " +
                              std::to_string(rhs) + ")");
    }
  }
  if (cf.has_histogram()) {
    for (size_t d = 0; d < cf.dim(); ++d) {
      int64_t total = 0;
      for (const auto& [value, count] : cf.histogram(d)) {
        if (count < 0) {
          return Status::Internal(path + ": negative histogram count on " +
                                  "dimension " + std::to_string(d));
        }
        total += count;
      }
      if (total != cf.n()) {
        return Status::Internal(
            path + ": histogram mass " + std::to_string(total) +
            " != N = " + std::to_string(cf.n()) + " on dimension " +
            std::to_string(d));
      }
    }
  }
  return Status::OK();
}

Status AcfTree::ValidateAcfEntry(const Acf& acf,
                                 const std::string& path) const {
  if (acf.layout_ptr().get() != layout_.get()) {
    return Status::Internal(path + ": entry layout differs from the tree's");
  }
  if (acf.own_part() != own_part_) {
    return Status::Internal(path + ": entry own_part " +
                            std::to_string(acf.own_part()) +
                            " != tree part " + std::to_string(own_part_));
  }
  if (acf.n() <= 0) {
    return Status::Internal(path + ": entry summarizes no tuples");
  }
  // Cross-attribute consistency (Eq. 7): every image must summarize exactly
  // the tuples of the cluster, on the dimensions of its part.
  for (size_t p = 0; p < layout_->num_parts(); ++p) {
    const std::string img_path = path + "/img" + std::to_string(p);
    DAR_RETURN_IF_ERROR(ValidateCfSummary(
        acf.image(p), layout_->parts[p].dim, layout_->parts[p].metric,
        img_path));
    if (acf.image(p).n() != acf.cf().n()) {
      return Status::Internal(
          img_path + ": cross-attribute mass " +
          std::to_string(acf.image(p).n()) + " != own mass " +
          std::to_string(acf.cf().n()));
    }
  }
  return Status::OK();
}

Status AcfTree::ValidateNodeRec(const Node& node, const std::string& path,
                                bool is_root, size_t* nodes,
                                size_t* leaf_entries) const {
  ++*nodes;
  if (node.is_leaf) {
    if (!node.children.empty()) {
      return Status::Internal(path + ": leaf node has internal children");
    }
    if (node.entries.size() > static_cast<size_t>(options_.leaf_capacity)) {
      return Status::Internal(path + ": leaf holds " +
                              std::to_string(node.entries.size()) +
                              " entries, capacity is " +
                              std::to_string(options_.leaf_capacity));
    }
    if (!is_root && node.entries.empty()) {
      return Status::Internal(path + ": non-root leaf is empty");
    }
    *leaf_entries += node.entries.size();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      DAR_RETURN_IF_ERROR(
          ValidateAcfEntry(node.entries[i], path + "/e" + std::to_string(i)));
    }
    return Status::OK();
  }

  if (!node.entries.empty()) {
    return Status::Internal(path + ": internal node holds leaf entries");
  }
  if (node.children.empty()) {
    return Status::Internal(path + ": internal node has no children");
  }
  if (node.children.size() >
      static_cast<size_t>(options_.branching_factor)) {
    return Status::Internal(path + ": internal node fan-out " +
                            std::to_string(node.children.size()) +
                            " exceeds branching factor " +
                            std::to_string(options_.branching_factor));
  }
  const PartSpec& own = layout_->parts[own_part_];
  for (size_t i = 0; i < node.children.size(); ++i) {
    const std::string child_path = path + "/c" + std::to_string(i);
    const ChildRef& ref = node.children[i];
    if (ref.child == nullptr) {
      return Status::Internal(child_path + ": null child pointer");
    }
    DAR_RETURN_IF_ERROR(
        ValidateCfSummary(ref.cf, own.dim, own.metric, child_path));
    // CF additivity (BIRCH Additivity Theorem): the entry CF must equal the
    // bottom-up merge of its subtree. N, min and max are exact under both
    // accumulation orders; LS/SS are float sums and get a tolerance.
    CfVector recomputed = ComputeNodeCf(*ref.child);
    if (ref.cf.n() != recomputed.n()) {
      return Status::Internal(
          child_path + ": CF additivity violated: entry N = " +
          std::to_string(ref.cf.n()) + ", subtree N = " +
          std::to_string(recomputed.n()));
    }
    for (size_t d = 0; d < own.dim; ++d) {
      if (!ApproxEqual(ref.cf.ls()[d], recomputed.ls()[d])) {
        return Status::Internal(
            child_path + ": CF additivity violated: ls[" +
            std::to_string(d) + "] = " + std::to_string(ref.cf.ls()[d]) +
            ", subtree sum = " + std::to_string(recomputed.ls()[d]));
      }
      if (!ApproxEqual(ref.cf.ss()[d], recomputed.ss()[d])) {
        return Status::Internal(
            child_path + ": CF additivity violated: ss[" +
            std::to_string(d) + "] = " + std::to_string(ref.cf.ss()[d]) +
            ", subtree sum = " + std::to_string(recomputed.ss()[d]));
      }
      if (recomputed.n() > 0 &&
          (ref.cf.min()[d] != recomputed.min()[d] ||
           ref.cf.max()[d] != recomputed.max()[d])) {
        return Status::Internal(child_path +
                                ": CF additivity violated: bounding box "
                                "differs from subtree on dimension " +
                                std::to_string(d));
      }
    }
    DAR_RETURN_IF_ERROR(
        ValidateNodeRec(*ref.child, child_path, false, nodes, leaf_entries));
  }
  return Status::OK();
}

Status AcfTree::ValidateInvariants() const {
  if (root_ == nullptr) {
    return Status::Internal("tree has no root node");
  }
  size_t nodes = 0;
  size_t leaf_entries = 0;
  DAR_RETURN_IF_ERROR(
      ValidateNodeRec(*root_, "root", /*is_root=*/true, &nodes,
                      &leaf_entries));
  if (nodes != num_nodes_) {
    return Status::Internal("cached node count " +
                            std::to_string(num_nodes_) + " != recount " +
                            std::to_string(nodes));
  }
  if (leaf_entries != num_leaf_entries_) {
    return Status::Internal("cached leaf-entry count " +
                            std::to_string(num_leaf_entries_) +
                            " != recount " + std::to_string(leaf_entries));
  }
  for (size_t i = 0; i < outlier_buffer_.size(); ++i) {
    DAR_RETURN_IF_ERROR(ValidateAcfEntry(
        outlier_buffer_[i], "outlier_buffer/e" + std::to_string(i)));
  }
  for (size_t i = 0; i < outliers_.size(); ++i) {
    DAR_RETURN_IF_ERROR(
        ValidateAcfEntry(outliers_[i], "outliers/e" + std::to_string(i)));
  }
  // Mass conservation: no tuple is lost or double-counted by absorption,
  // splits, rebuilds, or outlier paging.
  if (TotalMass() != points_inserted_) {
    return Status::Internal("total mass " + std::to_string(TotalMass()) +
                            " != points inserted " +
                            std::to_string(points_inserted_));
  }
  return Status::OK();
}

AcfTreeStats AcfTree::Stats() const {
  AcfTreeStats s;
  s.num_nodes = num_nodes_;
  s.num_leaf_entries = num_leaf_entries_;
  s.num_outliers = outlier_buffer_.size() + outliers_.size();
  s.rebuild_count = rebuild_count_;
  s.threshold = threshold_;
  s.approx_bytes = ApproxBytesNow();
  s.points_inserted = points_inserted_;
  s.split_count = split_count_;
  // The tree is height-balanced, so the leftmost root-to-leaf path has the
  // common length.
  const Node* node = root_.get();
  while (node != nullptr) {
    ++s.height;
    node = node->is_leaf || node->children.empty()
               ? nullptr
               : node->children.front().child.get();
  }
  return s;
}

}  // namespace dar
