#ifndef DAR_CORE_RULE_GEN_H_
#define DAR_CORE_RULE_GEN_H_

#include <vector>

#include "birch/metrics.h"
#include "core/clustering_graph.h"
#include "core/model.h"
#include "core/rules.h"

namespace dar {

/// Parameters of the clique-pair rule enumeration (§6.2).
struct RuleGenOptions {
  ClusterMetric metric = ClusterMetric::kD2AvgInter;
  /// Degree-of-association threshold D0.
  double degree_threshold = 1.0;
  /// Optional per-part override of D0, keyed by the consequent cluster's
  /// part (see DarConfig::degree_thresholds).
  std::vector<double> degree_thresholds;
  size_t max_antecedent = 3;
  size_t max_consequent = 2;
  size_t max_rules = 100000;
};

/// Rule-generation output plus diagnostics.
struct RuleGenResult {
  std::vector<DistanceRule> rules;
  /// True when max_rules stopped enumeration early (never silent).
  bool truncated = false;
  /// Number of assoc-set distance evaluations performed.
  int64_t degree_evaluations = 0;
};

/// Emits all DARs from the maximal cliques of the clustering graph,
/// following §6.2: for every ordered pair of cliques (Q1, Q2) — including
/// Q1 == Q2 — and every consequent subset C_Y' of Q2, emit
/// `C_X' => C_Y'` for every antecedent subset C_X' of the intersection of
/// `assoc(C_Yj) = {C_X in Q1 : D(C_Yj[Yj], C_X[Yj]) <= D0}` over C_Y',
/// with all attribute sets pairwise disjoint. Duplicate rules arising from
/// overlapping cliques are emitted once, with arity bounded by the options.
///
/// Emission order is a contract: Q2-major, Q1-minor over `cliques`; within
/// a clique pair, consequents in combination order over Q2's members as
/// listed, and for each, antecedents in combination order over the
/// candidates in ascending id order ({a}, {a,b}, {a,b,c}, {a,c}, {b}, ...);
/// a rule that recurs is kept at its first occurrence. RunPhase2OnSummaries
/// sorts by degree with the unstable std::sort, so the order among equal
/// degrees — and thus the served rule list — follows this emission order.
/// `degree_evaluations` counts distinct (consequent, antecedent) cluster
/// pairs evaluated, which under `max_rules` truncation covers the clique
/// pairs visited up to the cut.
RuleGenResult GenerateDistanceRules(
    const ClusterSet& clusters,
    const std::vector<std::vector<size_t>>& cliques,
    const RuleGenOptions& options);

/// The degree of association of a concrete rule `antecedent => consequent`
/// under metric `m`: max over pairs of D(C_Yj[Yj], C_Xi[Yj]). Exposed for
/// tests and for evaluating user-specified rules (Figure 2 / Figure 4
/// scenarios).
double DegreeOfAssociation(const ClusterSet& clusters,
                           const std::vector<size_t>& antecedent,
                           const std::vector<size_t>& consequent,
                           ClusterMetric m);

}  // namespace dar

#endif  // DAR_CORE_RULE_GEN_H_
