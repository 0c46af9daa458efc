#ifndef DAR_CORE_RULE_STATS_H_
#define DAR_CORE_RULE_STATS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/executor.h"
#include "common/result.h"
#include "core/model.h"
#include "core/rules.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace dar {

/// The 2x2 contingency table of one rule over a scanned relation, in the
/// form every classical interestingness measure consumes (Guillaume et
/// al., arXiv:1206.6741): of `total` scanned tuples, `antecedent` matched
/// every antecedent cluster, `consequent` matched every consequent
/// cluster, and `both` matched the whole rule (== the §6.2 support
/// count). A tuple "matches" a cluster when the §4.3.2 point-to-cluster
/// assignment puts it in that cluster on the cluster's part.
struct RuleStats {
  int64_t total = 0;
  int64_t antecedent = 0;
  int64_t consequent = 0;
  int64_t both = 0;
};

/// Fills one RuleStats per rule with a single pass over `rel`. A row's
/// contribution depends only on its signature: the §4.3.2 assignment of
/// the row to one cluster per part (-1 on a part without clusters). So the
/// pass assigns each row once per part, counts rows per distinct signature
/// in a hash table, then adds each signature's row count to every rule
/// whose antecedent, consequent or both it matches. The cost is
/// rows x clusters-per-part distance evaluations plus signatures x rules
/// side checks, never more than the rows x rules of a per-row rule test,
/// and no per-row buffer is kept. It is one scan however many measures are
/// later evaluated.
///
/// Row ranges are sharded on `executor` (null = serial), each shard with
/// its own signature table, and the per-shard integer counts are summed in
/// shard order, so the result is bit-identical at any thread count. This
/// is the generalization of the §6.2 support post-scan;
/// Session::CountRuleSupport delegates here.
Result<std::vector<RuleStats>> ComputeRuleStats(
    const Relation& rel, const AttributePartition& partition,
    const ClusterSet& clusters, std::span<const DistanceRule> rules,
    Executor* executor);

}  // namespace dar

#endif  // DAR_CORE_RULE_STATS_H_
