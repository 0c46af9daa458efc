#include "core/model.h"

#include <limits>
#include <sstream>

#include "birch/metrics.h"
#include "common/logging.h"
#include "common/str_util.h"

namespace dar {

ClusterSet::ClusterSet(std::shared_ptr<const AcfLayout> layout,
                       std::vector<FoundCluster> clusters)
    : layout_(std::move(layout)), clusters_(std::move(clusters)) {
  DAR_CHECK(layout_ != nullptr);
  by_part_.resize(layout_->num_parts());
  for (size_t i = 0; i < clusters_.size(); ++i) {
    DAR_CHECK_EQ(clusters_[i].id, i);
    by_part_.at(clusters_[i].part).push_back(i);
  }
}

Result<size_t> ClusterSet::AssignToCluster(
    size_t p, std::span<const double> values) const {
  if (by_part_.at(p).empty()) {
    return Status::NotFound("part " + std::to_string(p) +
                            " has no frequent clusters");
  }
  return NearestOnPart(p, values);
}

size_t ClusterSet::NearestOnPart(size_t p,
                                 std::span<const double> values) const {
  const std::vector<size_t>& ids = by_part_[p];
  size_t best = ids[0];
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t id : ids) {
    double d = PointClusterDistance(values, clusters_[id].acf.cf());
    if (d < best_d) {
      best_d = d;
      best = id;
    }
  }
  return best;
}

std::string ClusterSet::Describe(size_t id, const Schema& schema,
                                 const AttributePartition& partition) const {
  const FoundCluster& c = cluster(id);
  const AttributeSet& part = partition.part(c.part);
  auto box = c.acf.BoundingBox(c.part);
  std::ostringstream os;
  for (size_t d = 0; d < box.size(); ++d) {
    if (d > 0) os << ", ";
    const std::string& name = schema.attribute(part.columns[d]).name;
    if (box[d].first == box[d].second) {
      os << name << " = " << FormatDouble(box[d].first);
    } else {
      os << name << " in [" << FormatDouble(box[d].first) << ", "
         << FormatDouble(box[d].second) << "]";
    }
  }
  os << " (n=" << c.acf.n() << ")";
  return os.str();
}

std::string ClusterSet::DescribeConjunction(
    const std::vector<size_t>& ids, const Schema& schema,
    const AttributePartition& partition) const {
  std::string out;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += " AND ";
    out += '[';
    out += Describe(ids[i], schema, partition);
    out += ']';
  }
  return out;
}

}  // namespace dar
