#ifndef DAR_CORE_MODEL_H_
#define DAR_CORE_MODEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "birch/acf.h"
#include "birch/acf_tree.h"
#include "common/result.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace dar {

/// A frequent cluster discovered by Phase I: an ACF plus bookkeeping.
struct FoundCluster {
  /// Dense id; index into ClusterSet::clusters().
  size_t id = 0;
  /// Attribute set (partition part) the cluster is defined on.
  size_t part = 0;
  Acf acf;
};

/// The set of frequent clusters produced by Phase I, with helpers used by
/// Phase II and by the generalized-QAR miner.
class ClusterSet {
 public:
  ClusterSet() = default;
  ClusterSet(std::shared_ptr<const AcfLayout> layout,
             std::vector<FoundCluster> clusters);

  [[nodiscard]] const std::vector<FoundCluster>& clusters() const { return clusters_; }
  [[nodiscard]] const FoundCluster& cluster(size_t id) const { return clusters_.at(id); }
  [[nodiscard]] size_t size() const { return clusters_.size(); }
  [[nodiscard]] const AcfLayout& layout() const { return *layout_; }

  /// Ids of the clusters defined on part `p`.
  [[nodiscard]] const std::vector<size_t>& ClustersOnPart(size_t p) const {
    return by_part_.at(p);
  }
  [[nodiscard]] size_t num_parts() const { return by_part_.size(); }

  /// Id of the cluster on part `p` whose centroid is nearest to `values`
  /// (the §4.3.2 point-to-cluster assignment), or NotFound when the part
  /// has no frequent clusters.
  Result<size_t> AssignToCluster(size_t p,
                                 std::span<const double> values) const;

  /// Calls `fn(row, assignment)` for each row in [begin, end) of `rel`, in
  /// order: assignment[p] is the AssignToCluster id of the row's image on
  /// part p, or -1 when part p has no frequent clusters. Empty parts are
  /// found once, before the row loop; `assignment` is reused across rows.
  template <typename Fn>
  void ForEachRowAssignment(const Relation& rel,
                            const AttributePartition& partition,
                            size_t begin, size_t end, Fn&& fn) const {
    std::vector<int64_t> assignment(partition.num_parts(), -1);
    std::vector<size_t> assigned_parts;
    for (size_t p = 0; p < partition.num_parts(); ++p) {
      if (!ClustersOnPart(p).empty()) assigned_parts.push_back(p);
    }
    std::vector<double> buf;
    for (size_t r = begin; r < end; ++r) {
      for (size_t p : assigned_parts) {
        rel.ProjectRow(r, partition.part(p).columns, buf);
        assignment[p] = static_cast<int64_t>(NearestOnPart(p, buf));
      }
      fn(r, std::span<const int64_t>(assignment));
    }
  }

  /// Human-readable description of cluster `id` by its smallest bounding
  /// box (the §7.2 presentation choice), e.g. "Salary in [80K, 82K]".
  std::string Describe(size_t id, const Schema& schema,
                       const AttributePartition& partition) const;

  /// The clusters `ids` as one rule side: their descriptions in brackets,
  /// joined by " AND ".
  std::string DescribeConjunction(const std::vector<size_t>& ids,
                                  const Schema& schema,
                                  const AttributePartition& partition) const;

 private:
  // AssignToCluster on a part known to have at least one cluster.
  size_t NearestOnPart(size_t p, std::span<const double> values) const;

  std::shared_ptr<const AcfLayout> layout_;
  std::vector<FoundCluster> clusters_;
  std::vector<std::vector<size_t>> by_part_;
};

/// Everything Phase I reports.
struct Phase1Result {
  std::shared_ptr<const AcfLayout> layout;
  ClusterSet clusters;
  /// Per-part statistics of the final trees.
  std::vector<AcfTreeStats> tree_stats;
  /// Confirmed outliers across all parts.
  std::vector<Acf> outliers;
  /// Number of leaf clusters before frequency filtering, per part.
  std::vector<size_t> raw_cluster_counts;
  /// Effective density thresholds d0^X per part (see DarConfig).
  std::vector<double> effective_d0;
  /// The absolute frequency threshold s0 used.
  int64_t frequency_threshold = 0;
  /// Wall-clock seconds spent in Phase I.
  double seconds = 0;
};

}  // namespace dar

#endif  // DAR_CORE_MODEL_H_
