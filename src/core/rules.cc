#include "core/rules.h"

#include <sstream>

namespace dar {

std::string DistanceRule::ToString(const ClusterSet& clusters,
                                   const Schema& schema,
                                   const AttributePartition& partition) const {
  std::ostringstream os;
  os << clusters.DescribeConjunction(antecedent, schema, partition) << " => "
     << clusters.DescribeConjunction(consequent, schema, partition)
     << " (degree=" << degree;
  if (support_count >= 0) os << ", support_count=" << support_count;
  os << ")";
  return os.str();
}

}  // namespace dar
