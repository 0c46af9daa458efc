#ifndef DAR_BIRCH_ACF_TREE_H_
#define DAR_BIRCH_ACF_TREE_H_

#include <memory>
#include <string>
#include <vector>

#include "birch/acf.h"
#include "birch/metrics.h"
#include "common/status.h"

namespace dar {

// Test-only backdoor for planting corruptions; defined by invariant tests.
struct InvariantTestPeer;
// Serialization backdoor for dar::persist; defined in persist/persist_peer.h.
struct PersistPeer;

/// Tuning knobs for one ACF-tree.
struct AcfTreeOptions {
  /// Max entries per internal node (BIRCH's branching factor B).
  int branching_factor = 16;
  /// Max ACF entries per leaf node (BIRCH's L).
  int leaf_capacity = 8;
  /// Initial diameter threshold T for absorbing points into clusters.
  /// BIRCH starts at 0 (every distinct point its own cluster) and lets the
  /// rebuild loop raise it under memory pressure.
  double initial_threshold = 0.0;
  /// Memory budget for this tree in (approximate) bytes. Exceeding it
  /// triggers a threshold increase and rebuild (§3, §4.3.1).
  size_t memory_budget_bytes = 1 << 20;
  /// Minimum multiplicative growth of the threshold per rebuild.
  double threshold_growth = 1.5;
  /// During rebuilds, leaf clusters with fewer than this many tuples are
  /// paged out to the outlier buffer instead of being reinserted
  /// ("clusters significantly smaller than the frequency threshold",
  /// §4.3.1). 0 disables outlier paging.
  int64_t outlier_entry_min_n = 0;
  /// Safety cap on rebuilds per insert; exceeded => ResourceExhausted.
  int max_rebuilds_per_insert = 64;
};

/// Summary statistics for benchmarking, telemetry and tests.
struct AcfTreeStats {
  size_t num_nodes = 0;
  size_t num_leaf_entries = 0;
  size_t num_outliers = 0;
  int rebuild_count = 0;
  double threshold = 0;
  size_t approx_bytes = 0;
  int64_t points_inserted = 0;
  /// Node splits over the tree's lifetime (including splits replayed
  /// during rebuilds).
  int64_t split_count = 0;
  /// Levels from root to leaf; 1 for a leaf-only root. The tree is
  /// height-balanced, so any root-to-leaf path has this length.
  int height = 0;
};

/// The height-balanced clustering tree of §4.3.1/§6.1: a CF-tree whose leaf
/// entries are ACFs. Internal nodes hold (CF, child) pairs on the tree's own
/// attribute set and guide insertion to the closest leaf cluster; leaf
/// entries absorb points while their diameter stays within the current
/// threshold, else spawn new clusters. When the memory budget is exceeded
/// the threshold is raised and the tree rebuilt by reinserting leaf ACFs —
/// the data is never rescanned. Small clusters can be paged out as outliers
/// during rebuilds and are re-absorbed by FinishScan().
///
/// One AcfTree is built per attribute set X_i of the user partitioning; the
/// tree clusters on X_i while its leaf ACFs accumulate image summaries over
/// every part.
class AcfTree {
 public:
  /// `own_part` selects which part of `layout` this tree clusters on.
  AcfTree(std::shared_ptr<const AcfLayout> layout, size_t own_part,
          AcfTreeOptions options);

  AcfTree(const AcfTree&) = delete;
  AcfTree& operator=(const AcfTree&) = delete;

  /// Deep copy of the tree's full state — nodes, leaf ACFs, outlier
  /// buffers, counters and options. The
  /// clone evolves independently of the original; streaming re-mines clone
  /// each live tree and run the destructive finishing pipeline
  /// (FinishScan + extraction) on the copies, so ingestion can continue on
  /// the originals. O(tree size).
  [[nodiscard]] std::unique_ptr<AcfTree> Clone() const;

  /// Inserts one tuple (projected per part). May trigger rebuilds.
  Status InsertPoint(const PartedRow& row);

  /// Inserts a pre-aggregated cluster summary (used by rebuilds; also the
  /// primitive for merging trees).
  Status InsertSummary(Acf acf);

  /// Re-inserts paged-out outliers with the same descent as InsertSummary,
  /// except that no new leaf entry is opened: each outlier is absorbed
  /// into an existing cluster if the threshold test holds, otherwise
  /// confirmed as an outlier. Call once after the data scan (§4.3.1).
  Status FinishScan();

  /// Absorbs another tree built over a *disjoint* tuple set: by CF/ACF
  /// additivity (Eq. 3/7) the union's summary is exactly the re-insertion
  /// of the other tree's leaf clusters. The threshold is raised to the max
  /// of the two trees before re-absorption; the other tree's paged-out and
  /// confirmed outliers land in this tree's outlier buffer for a fresh
  /// FinishScan decision under the merged threshold. Memory-budget
  /// overruns trigger the normal rebuild loop. `other` may come from a
  /// different process: a structurally equivalent layout (LayoutsEquivalent)
  /// suffices, pointer identity is not required. `other` is unchanged.
  Status MergeFrom(const AcfTree& other);

  /// All leaf clusters, in leaf order. Confirmed outliers are not included;
  /// see outliers().
  [[nodiscard]] std::vector<Acf> ExtractClusters() const;

  /// Clusters confirmed as outliers by FinishScan (plus any still paged out
  /// if FinishScan has not been called).
  [[nodiscard]] const std::vector<Acf>& outliers() const { return outliers_; }

  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] int rebuild_count() const { return rebuild_count_; }

  /// Adjusts the outlier paging threshold mid-scan. Streaming callers keep
  /// it proportional to the running tuple count, since the absolute
  /// frequency threshold s0 is only known when the scan ends.
  void set_outlier_entry_min_n(int64_t n) { options_.outlier_entry_min_n = n; }
  [[nodiscard]] AcfTreeStats Stats() const;

  /// Total tuple mass in the tree plus the outlier buffer. Invariant:
  /// equals the number of inserted points (plus summary masses).
  [[nodiscard]] int64_t TotalMass() const;

  /// Walks the whole tree and verifies the structural and summary-arithmetic
  /// invariants the mining phases rely on (Thm 6.1 is only valid on a tree
  /// where these hold):
  ///
  ///  - CF additivity: every internal entry's CF equals the merge of its
  ///    child subtree's CFs (exactly in N, within float tolerance in
  ///    LS/SS/min/max, exactly in discrete histograms);
  ///  - entry-count bounds: internal fan-out within [1, branching_factor],
  ///    leaf occupancy within [1, leaf_capacity] (root may be empty);
  ///  - CF sanity: non-negative masses and squared-sum terms, the
  ///    Cauchy-Schwarz moment inequality N*SS >= |LS|^2, centroids inside
  ///    the tracked bounding boxes;
  ///  - ACF cross-attribute consistency: every image summarizes exactly
  ///    cf().n() tuples on the right dimensions/metric;
  ///  - cached counters (num_nodes, num_leaf_entries, total mass) match a
  ///    recount.
  ///
  /// Returns the first violation as an Internal status naming the offending
  /// node path (e.g. "root/c2/e0"), or OK. O(tree size); automatically run
  /// after every mutating operation when built with -DDAR_VALIDATE_INVARIANTS.
  [[nodiscard]] Status ValidateInvariants() const;

 private:
  friend struct InvariantTestPeer;
  friend struct PersistPeer;
  struct Node;
  struct ChildRef {
    CfVector cf;  // summary of the subtree, on the own part
    std::unique_ptr<Node> child;
  };
  struct Node {
    bool is_leaf = true;
    std::vector<ChildRef> children;  // internal nodes
    std::vector<Acf> entries;        // leaf nodes
  };

  // Outcome of one insertion descent below a node: whether the item found
  // a place (always, unless opening a leaf entry was forbidden), and the new
  // sibling the parent must adopt if the node split.
  struct InsertOutcome {
    bool placed = true;
    std::unique_ptr<Node> sibling;
  };

  // The one insertion descent (§4.3.1), for a point row or a summary alike
  // (the item kinds live in acf_tree.cc): descend to the closest child,
  // absorb into the closest leaf entry if the threshold test holds, else
  // open a new entry — unless `may_open` is false — and split upward.
  template <typename Item>
  InsertOutcome Insert(Node* node, Item& item, bool may_open);

  // Inserts `item` from the root, accounts `mass` inserted tuples, then
  // rebuilds until the tree fits its memory budget again.
  template <typename Item>
  Status InsertFromRoot(Item& item, int64_t mass);

  // Splits an over-full node; returns the new sibling holding roughly half
  // the entries. `node` keeps the other half.
  std::unique_ptr<Node> SplitNode(Node* node);

  // Recomputes the subtree CF of `node` on the own part.
  [[nodiscard]] CfVector ComputeNodeCf(const Node& node) const;

  // Handles a root split by growing the tree one level.
  void GrowRoot(std::unique_ptr<Node> sibling);

  // Raises the threshold and reinserts all leaf entries; pages out small
  // clusters as outliers. Returns an error if the budget cannot be met.
  Status Rebuild();

  // Picks the next threshold: max(growth * current, the median over leaves
  // of the smallest merged-pair diameter within the leaf), so that at least
  // a substantial fraction of adjacent clusters merge after the rebuild.
  [[nodiscard]] double NextThreshold() const;

  // Recursive deep copy of a subtree (Clone's workhorse).
  [[nodiscard]] std::unique_ptr<Node> CloneNode(const Node& node) const;

  [[nodiscard]] size_t ApproxBytesNow() const;

  // ValidateInvariants helpers; `path` names the node under scrutiny.
  Status ValidateNodeRec(const Node& node, const std::string& path,
                         bool is_root, size_t* nodes,
                         size_t* leaf_entries) const;
  Status ValidateCfSummary(const CfVector& cf, size_t expect_dim,
                           MetricKind expect_metric,
                           const std::string& path) const;
  [[nodiscard]] Status ValidateAcfEntry(const Acf& acf, const std::string& path) const;

  std::shared_ptr<const AcfLayout> layout_;
  size_t own_part_;
  AcfTreeOptions options_;
  double threshold_;
  std::unique_ptr<Node> root_;
  std::vector<Acf> outlier_buffer_;  // paged out, not yet confirmed
  std::vector<Acf> outliers_;        // confirmed by FinishScan
  int rebuild_count_ = 0;
  int64_t split_count_ = 0;
  int64_t points_inserted_ = 0;
  size_t num_nodes_ = 1;
  size_t num_leaf_entries_ = 0;
  size_t acf_bytes_estimate_;
  bool in_rebuild_ = false;
};

}  // namespace dar

#endif  // DAR_BIRCH_ACF_TREE_H_
