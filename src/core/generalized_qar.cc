#include "core/generalized_qar.h"

#include <sstream>

namespace dar {

std::string GeneralizedQarRule::ToString(
    const ClusterSet& clusters, const Schema& schema,
    const AttributePartition& partition) const {
  std::ostringstream os;
  os << clusters.DescribeConjunction(antecedent, schema, partition) << " => "
     << clusters.DescribeConjunction(consequent, schema, partition)
     << " (support=" << support << ", confidence=" << confidence << ")";
  return os.str();
}

Result<GeneralizedQarResult> GeneralizedQarMiner::Mine(
    const Relation& rel, const AttributePartition& partition) const {
  GeneralizedQarResult out;
  DAR_ASSIGN_OR_RETURN(Session session,
                       Session::Builder().WithConfig(config_).Build());
  DAR_ASSIGN_OR_RETURN(out.phase1, session.RunPhase1(rel, partition));
  const ClusterSet& clusters = out.phase1.clusters;

  // Encode each tuple as the set of nearest frequent clusters, one item per
  // part that has any frequent cluster (§4.3.2: parts without frequent
  // clusters are omitted).
  std::vector<Itemset> transactions(rel.num_rows());
  clusters.ForEachRowAssignment(
      rel, partition, 0, rel.num_rows(),
      [&](size_t r, std::span<const int64_t> assignment) {
        Itemset& t = transactions[r];
        for (const int64_t id : assignment) {
          if (id >= 0) t.push_back(static_cast<Item>(id));
        }
        Canonicalize(t);
      });

  AprioriOptions ap;
  ap.min_support_count = out.phase1.frequency_threshold;
  ap.min_confidence = min_confidence_;
  DAR_ASSIGN_OR_RETURN(out.frequent_itemsets,
                       MineFrequentItemsets(transactions, ap));
  DAR_ASSIGN_OR_RETURN(
      std::vector<AssociationRule> rules,
      GenerateRules(out.frequent_itemsets, transactions.size(), ap));

  out.rules.reserve(rules.size());
  for (const auto& r : rules) {
    GeneralizedQarRule g;
    for (Item it : r.antecedent) g.antecedent.push_back(it);
    for (Item it : r.consequent) g.consequent.push_back(it);
    g.support_count = r.support_count;
    g.support = r.support;
    g.confidence = r.confidence;
    out.rules.push_back(std::move(g));
  }
  return out;
}

}  // namespace dar
