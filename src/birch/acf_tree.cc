#include "birch/acf_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

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

// The two kinds of item the insertion descent places. Each keeps its own
// arithmetic, so a point row never becomes a one-point Acf.

// One tuple, projected per part.
struct PointItem {
  const PartedRow& row;
  std::span<const double> own;

  double Distance(const CfVector& cf) const {
    return PointClusterDistance(own, cf);
  }
  double DiameterWith(const CfVector& entry) const {
    return entry.DiameterWithPoint(own);
  }
  void AbsorbInto(Acf& entry) const { entry.AddRow(row); }
  void AddTo(CfVector& path) const { path.AddPoint(own); }
  Acf Open(const std::shared_ptr<const AcfLayout>& layout,
           size_t own_part) const {
    Acf fresh(layout, own_part);
    fresh.AddRow(row);
    return fresh;
  }
};

// A pre-aggregated cluster: a leaf ACF reinserted by a rebuild, a merged
// tree's cluster, or a paged-out outlier.
struct SummaryItem {
  explicit SummaryItem(Acf& summary) : acf(summary), cf(summary.cf()) {}

  double Distance(const CfVector& other) const {
    return ClusterDistance(cf, other, ClusterMetric::kD0Centroid);
  }
  double DiameterWith(const CfVector& entry) const {
    return entry.DiameterWithMerge(cf);
  }
  void AbsorbInto(Acf& entry) const { entry.Merge(acf); }
  void AddTo(CfVector& path) const { path.Merge(cf); }
  Acf Open(const std::shared_ptr<const AcfLayout>& /*layout*/,
           size_t /*own_part*/) {
    return std::move(acf);
  }

  Acf& acf;
  // acf.cf(), kept for the path update after `acf` moves into a leaf.
  const CfVector cf;
};

// The own-part CF of a leaf entry (Acf) or of an internal entry (ChildRef).
template <typename Entry>
const CfVector& CfOf(const Entry& entry) {
  if constexpr (std::is_same_v<Entry, Acf>) {
    return entry.cf();
  } else {
    return entry.cf;
  }
}

// Index of the entry closest to `item` (the first on ties) and its
// distance; infinity for no entries.
template <typename Item, typename Entry>
std::pair<size_t, double> Closest(const Item& item,
                                  const std::vector<Entry>& entries) {
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    double d = item.Distance(CfOf(entries[i]));
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return {best, best_d};
}

// BIRCH's node split, for leaf entries and child refs alike: seed with the
// farthest pair of entry centroids, then assign each entry to the closer
// seed. `from` keeps the first seed's group, `to` receives the other.
template <typename Entry>
void SplitEntries(std::vector<Entry>& from, std::vector<Entry>& to) {
  const size_t n = from.size();
  DAR_CHECK_GE(n, 2u);
  size_t sa = 0, sb = 1;
  double best = -1;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double d = ClusterDistance(CfOf(from[i]), CfOf(from[j]),
                                 ClusterMetric::kD0Centroid);
      if (d > best) {
        best = d;
        sa = i;
        sb = j;
      }
    }
  }
  const CfVector seed_a = CfOf(from[sa]);
  const CfVector seed_b = CfOf(from[sb]);
  std::vector<Entry> keep;
  for (size_t i = 0; i < n; ++i) {
    const CfVector& cf = CfOf(from[i]);
    bool to_a = i == sa ||
                (i != sb &&
                 ClusterDistance(cf, seed_a, ClusterMetric::kD0Centroid) <=
                     ClusterDistance(cf, seed_b, ClusterMetric::kD0Centroid));
    (to_a ? keep : to).push_back(std::move(from[i]));
  }
  from = std::move(keep);
}

// Calls `visit` on every leaf below `node`, left to right (the
// ExtractClusters order).
template <typename NodeT, typename Visit>
void ForEachLeaf(NodeT* node, const Visit& visit) {
  if (node->is_leaf) {
    visit(*node);
    return;
  }
  for (auto& c : node->children) {
    ForEachLeaf(static_cast<NodeT*>(c.child.get()), visit);
  }
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
  PointItem item{row, row[own_part_]};
  return InsertFromRoot(item, 1);
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
  const int64_t mass = acf.n();
  SummaryItem item(acf);
  return InsertFromRoot(item, mass);
}

template <typename Item>
Status AcfTree::InsertFromRoot(Item& item, int64_t mass) {
  InsertOutcome out = Insert(root_.get(), item, /*may_open=*/true);
  if (out.sibling != nullptr) GrowRoot(std::move(out.sibling));
  // A rebuild re-places mass the tree already counts, and must not recurse.
  if (in_rebuild_) return Status::OK();
  points_inserted_ += mass;

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

template <typename Item>
AcfTree::InsertOutcome AcfTree::Insert(Node* node, Item& item,
                                       bool may_open) {
  if (node->is_leaf) {
    auto [best, best_d] = Closest(item, node->entries);
    // Absorb only if the merged diameter stays within the threshold AND
    // the item itself is within the threshold of the centroid. The second
    // condition guards against mass dilution: for a heavy cluster the
    // average pairwise diameter moves by only O(D^2/N) when one point at
    // distance D is added, so the diameter test alone would let large
    // clusters swallow arbitrarily distant points.
    if (!node->entries.empty() &&
        item.DiameterWith(node->entries[best].cf()) <= threshold_ &&
        best_d <= threshold_) {
      item.AbsorbInto(node->entries[best]);
      return {};
    }
    if (!may_open) return {.placed = false, .sibling = nullptr};
    node->entries.push_back(item.Open(layout_, own_part_));
    ++num_leaf_entries_;
    if (node->entries.size() <=
        static_cast<size_t>(options_.leaf_capacity)) {
      return {};
    }
    return {.placed = true, .sibling = SplitNode(node)};
  }

  const size_t best = Closest(item, node->children).first;
  ChildRef& path = node->children[best];
  InsertOutcome below = Insert(path.child.get(), item, may_open);
  if (!below.placed) return below;
  if (below.sibling == nullptr) {
    item.AddTo(path.cf);
    return {};
  }
  path.cf = ComputeNodeCf(*path.child);
  ChildRef fresh{ComputeNodeCf(*below.sibling), std::move(below.sibling)};
  node->children.push_back(std::move(fresh));
  if (node->children.size() <=
      static_cast<size_t>(options_.branching_factor)) {
    return {};
  }
  return {.placed = true, .sibling = SplitNode(node)};
}

std::unique_ptr<AcfTree::Node> AcfTree::SplitNode(Node* node) {
  auto sibling = std::make_unique<Node>();
  sibling->is_leaf = node->is_leaf;
  ++num_nodes_;
  ++split_count_;
  if (node->is_leaf) {
    SplitEntries(node->entries, sibling->entries);
  } else {
    SplitEntries(node->children, sibling->children);
  }
  return sibling;
}

CfVector AcfTree::ComputeNodeCf(const Node& node) const {
  const PartSpec& spec = layout_->parts[own_part_];
  CfVector cf(spec.dim, spec.metric);
  // A leaf holds only entries, an internal node only children.
  for (const auto& e : node.entries) cf.Merge(e.cf());
  for (const auto& c : node.children) cf.Merge(c.cf);
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
  // Degenerate tree shapes (e.g. leaf capacity 1) never co-locate two
  // entries in a leaf; for them, the first entries in leaf order are
  // sampled globally so the threshold still jumps to the data scale
  // instead of crawling up by the growth factor alone.
  constexpr size_t kSampleSize = 48;
  std::vector<double> candidates;
  std::vector<const Acf*> sample;
  ForEachLeaf(root_.get(), [&](const Node& leaf) {
    for (const Acf& e : leaf.entries) {
      if (sample.size() < kSampleSize) sample.push_back(&e);
    }
    if (leaf.entries.size() < 2) return;
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < leaf.entries.size(); ++i) {
      for (size_t j = i + 1; j < leaf.entries.size(); ++j) {
        best = std::min(best, leaf.entries[i].cf().DiameterWithMerge(
                                  leaf.entries[j].cf()));
      }
    }
    candidates.push_back(best);
  });
  double data_driven = 0;
  if (!candidates.empty()) {
    size_t mid = candidates.size() / 2;
    std::nth_element(candidates.begin(), candidates.begin() + mid,
                     candidates.end());
    data_driven = candidates[mid];
  } else if (sample.size() >= 2) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < sample.size(); ++i) {
      for (size_t j = i + 1; j < sample.size(); ++j) {
        best = std::min(best,
                        sample[i]->cf().DiameterWithMerge(sample[j]->cf()));
      }
    }
    data_driven = best;
  }
  return std::max({threshold_ * options_.threshold_growth, data_driven,
                   kMinThreshold});
}

Status AcfTree::Rebuild() {
  double next = NextThreshold();
  std::vector<Acf> entries;
  ForEachLeaf(root_.get(), [&](Node& leaf) {
    for (Acf& e : leaf.entries) entries.push_back(std::move(e));
  });

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

Status AcfTree::FinishScan() {
  std::vector<Acf> pending = std::move(outlier_buffer_);
  outlier_buffer_.clear();
  for (Acf& acf : pending) {
    SummaryItem item(acf);
    if (!Insert(root_.get(), item, /*may_open=*/false).placed) {
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

  for (Acf& e : other.ExtractClusters()) {
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
  ForEachLeaf(root_.get(), [&](const Node& leaf) {
    out.insert(out.end(), leaf.entries.begin(), leaf.entries.end());
  });
  return out;
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
  ForEachLeaf(root_.get(), [&](const Node& leaf) {
    for (const auto& e : leaf.entries) mass += e.n();
  });
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
