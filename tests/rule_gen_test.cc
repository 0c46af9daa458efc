#include "core/rule_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "common/random.h"
#include "core/clustering_graph.h"

namespace dar {
namespace {

// The clique-pair generator as first written: std::map degree cache and
// assoc sets, a recursive std::function subset walk and a std::set of
// emitted keys. Kept as the oracle that GenerateDistanceRules must match
// rule for rule, including emission order.
bool ForEachSubset(const std::vector<size_t>& universe, size_t max_size,
                   const std::function<bool(const std::vector<size_t>&)>& fn) {
  std::vector<size_t> current;
  // Recursive combination enumeration.
  std::function<bool(size_t)> rec = [&](size_t start) -> bool {
    if (!current.empty()) {
      if (!fn(current)) return false;
    }
    if (current.size() == max_size) return true;
    for (size_t i = start; i < universe.size(); ++i) {
      current.push_back(universe[i]);
      if (!rec(i + 1)) return false;
      current.pop_back();
    }
    return true;
  };
  return rec(0);
}

RuleGenResult ReferenceGenerateDistanceRules(
    const ClusterSet& clusters,
    const std::vector<std::vector<size_t>>& cliques,
    const RuleGenOptions& options) {
  RuleGenResult result;
  std::set<std::pair<std::vector<size_t>, std::vector<size_t>>> seen;

  // Cache of degree evaluations D(C_Y[Yp], C_X[Yp]) keyed by (y, x).
  std::map<std::pair<size_t, size_t>, double> degree_cache;
  auto degree_of = [&](size_t cy, size_t cx) {
    auto key = std::make_pair(cy, cx);
    auto it = degree_cache.find(key);
    if (it != degree_cache.end()) return it->second;
    const FoundCluster& y = clusters.cluster(cy);
    const FoundCluster& x = clusters.cluster(cx);
    double d = ClusterDistance(y.acf.image(y.part), x.acf.image(y.part),
                               options.metric);
    ++result.degree_evaluations;
    degree_cache.emplace(key, d);
    return d;
  };

  // D0 for a consequent cluster: per-part override when provided, else the
  // scalar threshold (degrees live on the consequent part's scale).
  auto degree_limit = [&](size_t cy) {
    size_t part = clusters.cluster(cy).part;
    if (part < options.degree_thresholds.size()) {
      return options.degree_thresholds[part];
    }
    return options.degree_threshold;
  };

  for (const auto& q2 : cliques) {
    for (const auto& q1 : cliques) {
      // assoc(C_Yj) restricted to this Q1 (§6.2).
      std::map<size_t, std::vector<size_t>> assoc;
      for (size_t cy : q2) {
        std::vector<size_t>& a = assoc[cy];
        for (size_t cx : q1) {
          if (cx == cy) continue;
          if (clusters.cluster(cx).part == clusters.cluster(cy).part) {
            continue;
          }
          if (degree_of(cy, cx) <= degree_limit(cy)) {
            a.push_back(cx);
          }
        }
        std::sort(a.begin(), a.end());
      }

      bool keep_going = ForEachSubset(
          q2, options.max_consequent,
          [&](const std::vector<size_t>& consequent) -> bool {
            // Intersect assoc sets over the consequent.
            std::vector<size_t> candidates = assoc[consequent[0]];
            for (size_t i = 1; i < consequent.size() && !candidates.empty();
                 ++i) {
              std::vector<size_t> next;
              const auto& other = assoc[consequent[i]];
              std::set_intersection(candidates.begin(), candidates.end(),
                                    other.begin(), other.end(),
                                    std::back_inserter(next));
              candidates = std::move(next);
            }
            if (candidates.empty()) return true;
            // Antecedents must live on parts disjoint from the consequent's.
            std::set<size_t> consequent_parts;
            for (size_t cy : consequent) {
              consequent_parts.insert(clusters.cluster(cy).part);
            }
            std::erase_if(candidates, [&](size_t cx) {
              return consequent_parts.count(clusters.cluster(cx).part) > 0;
            });
            if (candidates.empty()) return true;

            return ForEachSubset(
                candidates, options.max_antecedent,
                [&](const std::vector<size_t>& antecedent) -> bool {
                  auto key = std::make_pair(antecedent, consequent);
                  if (!seen.insert(key).second) return true;
                  if (result.rules.size() >= options.max_rules) {
                    result.truncated = true;
                    return false;
                  }
                  DistanceRule rule;
                  rule.antecedent = antecedent;
                  rule.consequent = consequent;
                  double degree = 0;
                  for (size_t cy : consequent) {
                    for (size_t cx : antecedent) {
                      degree = std::max(degree, degree_of(cy, cx));
                    }
                  }
                  rule.degree = degree;
                  result.rules.push_back(std::move(rule));
                  return true;
                });
          });
      if (!keep_going) return result;
    }
  }
  return result;
}

// Layout with four 1-d parts A, B, C, D.
std::shared_ptr<const AcfLayout> FourPartLayout() {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "A"},
                   {1, MetricKind::kEuclidean, "B"},
                   {1, MetricKind::kEuclidean, "C"},
                   {1, MetricKind::kEuclidean, "D"}};
  return layout;
}

// Cluster on `part` summarizing `tuples` over (a, b, c, d).
FoundCluster MakeCluster(std::shared_ptr<const AcfLayout> layout, size_t id,
                         size_t part,
                         const std::vector<std::array<double, 4>>& tuples) {
  FoundCluster c;
  c.id = id;
  c.part = part;
  c.acf = Acf(layout, part);
  for (const auto& t : tuples) {
    c.acf.AddRow({{t[0]}, {t[1]}, {t[2]}, {t[3]}});
  }
  return c;
}

// A population of identical tuples (10, 20, 30, 40): clusters on A, B, C
// summarizing it are mutually associated with degree 0.
ClusterSet CooccurringSet(std::shared_ptr<const AcfLayout> layout) {
  std::vector<std::array<double, 4>> tuples(5, {10, 20, 30, 40});
  std::vector<FoundCluster> clusters;
  for (size_t p = 0; p < 3; ++p) {
    clusters.push_back(MakeCluster(layout, p, p, tuples));
  }
  return ClusterSet(layout, std::move(clusters));
}

TEST(DegreeTest, ZeroForPerfectAssociation) {
  auto layout = FourPartLayout();
  ClusterSet set = CooccurringSet(layout);
  EXPECT_DOUBLE_EQ(
      DegreeOfAssociation(set, {0}, {1}, ClusterMetric::kD2AvgInter), 0.0);
}

TEST(DegreeTest, GrowsWithImageDisplacement) {
  auto layout = FourPartLayout();
  std::vector<FoundCluster> clusters;
  // Cluster on A whose B-image sits at 25; cluster on B at 20.
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 25, 0, 0}}));
  clusters.push_back(MakeCluster(layout, 1, 1, {{10, 20, 0, 0}}));
  ClusterSet set(layout, std::move(clusters));
  double d = DegreeOfAssociation(set, {0}, {1}, ClusterMetric::kD2AvgInter);
  EXPECT_NEAR(d, 5.0, 1e-9);
}

TEST(DegreeTest, MaxOverPairs) {
  auto layout = FourPartLayout();
  std::vector<FoundCluster> clusters;
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 20, 0, 0}}));  // on A
  clusters.push_back(MakeCluster(layout, 1, 1, {{10, 20, 0, 0}}));  // on B
  // Second antecedent on C whose B-image is displaced by 7.
  clusters.push_back(MakeCluster(layout, 2, 2, {{10, 27, 5, 0}}));
  ClusterSet set(layout, std::move(clusters));
  double d =
      DegreeOfAssociation(set, {0, 2}, {1}, ClusterMetric::kD2AvgInter);
  EXPECT_NEAR(d, 7.0, 1e-9);
}

RuleGenOptions DefaultOptions() {
  RuleGenOptions opts;
  opts.degree_threshold = 1.0;
  return opts;
}

TEST(RuleGenTest, EmitsAllArityCombinationsFromOneClique) {
  auto layout = FourPartLayout();
  ClusterSet set = CooccurringSet(layout);
  // One clique {0, 1, 2}.
  std::vector<std::vector<size_t>> cliques = {{0, 1, 2}};
  RuleGenResult result = GenerateDistanceRules(set, cliques, DefaultOptions());
  EXPECT_FALSE(result.truncated);
  // Count: for 3 mutually associated clusters with max_antecedent 3 and
  // max_consequent 2: consequent {y}: antecedents from remaining 2 ->
  // 3 subsets each, 3 choices of y = 9; consequent pairs {y1,y2}: 3 pairs,
  // antecedent = the remaining single cluster -> 3. Total 12.
  EXPECT_EQ(result.rules.size(), 12u);
  for (const auto& rule : result.rules) {
    EXPECT_NEAR(rule.degree, 0.0, 1e-9);
    // Parts disjoint.
    std::set<size_t> parts;
    for (size_t id : rule.antecedent) {
      EXPECT_TRUE(parts.insert(set.cluster(id).part).second);
    }
    for (size_t id : rule.consequent) {
      EXPECT_TRUE(parts.insert(set.cluster(id).part).second);
    }
  }
}

TEST(RuleGenTest, DegreeThresholdFiltersWeakRules) {
  auto layout = FourPartLayout();
  std::vector<FoundCluster> clusters;
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 90, 0, 0}}));  // far B-img
  clusters.push_back(MakeCluster(layout, 1, 1, {{10, 20, 0, 0}}));
  ClusterSet set(layout, std::move(clusters));
  std::vector<std::vector<size_t>> cliques = {{0, 1}};
  RuleGenOptions opts = DefaultOptions();
  opts.degree_threshold = 5.0;
  RuleGenResult result = GenerateDistanceRules(set, cliques, opts);
  // 0 => 1 has degree |90 - 20| = 70 > 5 (dropped). 1 => 0: the A-images
  // coincide at 10, degree 0 (kept).
  ASSERT_EQ(result.rules.size(), 1u);
  EXPECT_EQ(result.rules[0].antecedent, (std::vector<size_t>{1}));
  EXPECT_EQ(result.rules[0].consequent, (std::vector<size_t>{0}));
}

TEST(RuleGenTest, OneWayAssociation) {
  // The paper's point (§5.2): association is one-way. Build clusters where
  // C_A's B-image is close to C_B (A => B strong) but C_B's A-image is far
  // from C_A (B => A weak).
  auto layout = FourPartLayout();
  std::vector<FoundCluster> clusters;
  // C_A summarizes tuples (10, 20): its B-image is exactly C_B's location.
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 20, 0, 0}}));
  // C_B summarizes tuples (10, 20) plus many (500, 20): its A-image
  // centroid is far from 10.
  clusters.push_back(MakeCluster(
      layout, 1, 1, {{10, 20, 0, 0}, {500, 20, 0, 0}, {500, 20, 0, 0}}));
  ClusterSet set(layout, std::move(clusters));
  double a_to_b =
      DegreeOfAssociation(set, {0}, {1}, ClusterMetric::kD2AvgInter);
  double b_to_a =
      DegreeOfAssociation(set, {1}, {0}, ClusterMetric::kD2AvgInter);
  EXPECT_LT(a_to_b, 1e-9);
  EXPECT_GT(b_to_a, 100.0);
}

TEST(RuleGenTest, CrossCliqueRules) {
  auto layout = FourPartLayout();
  // Clique 1 = {A-cluster, B-cluster} from population P1; clique 2 =
  // {C-cluster} whose images on A and B are near P1 (one-way assoc).
  std::vector<std::array<double, 4>> p1(4, {10, 20, 30, 0});
  std::vector<FoundCluster> clusters;
  clusters.push_back(MakeCluster(layout, 0, 0, p1));
  clusters.push_back(MakeCluster(layout, 1, 1, p1));
  clusters.push_back(MakeCluster(layout, 2, 2, p1));
  ClusterSet set(layout, std::move(clusters));
  // Force the clique structure: pretend graph found two cliques.
  std::vector<std::vector<size_t>> cliques = {{0, 1}, {2}};
  RuleGenResult result = GenerateDistanceRules(set, cliques, DefaultOptions());
  // Expect cross-clique rules like {0} => {2} and {0,1} => {2}.
  bool pair_to_c = false;
  for (const auto& rule : result.rules) {
    if (rule.antecedent == std::vector<size_t>{0, 1} &&
        rule.consequent == std::vector<size_t>{2}) {
      pair_to_c = true;
    }
  }
  EXPECT_TRUE(pair_to_c);
}

TEST(RuleGenTest, NoDuplicateRulesAcrossCliquePairs) {
  auto layout = FourPartLayout();
  ClusterSet set = CooccurringSet(layout);
  // Overlapping cliques sharing nodes.
  std::vector<std::vector<size_t>> cliques = {{0, 1, 2}, {0, 1}, {1, 2}};
  RuleGenResult result = GenerateDistanceRules(set, cliques, DefaultOptions());
  std::set<std::pair<std::vector<size_t>, std::vector<size_t>>> unique;
  for (const auto& rule : result.rules) {
    EXPECT_TRUE(unique.emplace(rule.antecedent, rule.consequent).second);
  }
}

TEST(RuleGenTest, ArityCapsRespected) {
  auto layout = FourPartLayout();
  std::vector<std::array<double, 4>> tuples(5, {10, 20, 30, 40});
  std::vector<FoundCluster> clusters;
  for (size_t p = 0; p < 4; ++p) {
    clusters.push_back(MakeCluster(layout, p, p, tuples));
  }
  ClusterSet set(layout, std::move(clusters));
  std::vector<std::vector<size_t>> cliques = {{0, 1, 2, 3}};
  RuleGenOptions opts = DefaultOptions();
  opts.max_antecedent = 1;
  opts.max_consequent = 1;
  RuleGenResult result = GenerateDistanceRules(set, cliques, opts);
  for (const auto& rule : result.rules) {
    EXPECT_EQ(rule.antecedent.size(), 1u);
    EXPECT_EQ(rule.consequent.size(), 1u);
  }
  // 4 * 3 ordered pairs.
  EXPECT_EQ(result.rules.size(), 12u);
}

TEST(RuleGenTest, MaxRulesTruncatesLoudly) {
  auto layout = FourPartLayout();
  ClusterSet set = CooccurringSet(layout);
  std::vector<std::vector<size_t>> cliques = {{0, 1, 2}};
  RuleGenOptions opts = DefaultOptions();
  opts.max_rules = 3;
  RuleGenResult result = GenerateDistanceRules(set, cliques, opts);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.rules.size(), 3u);
}

TEST(RuleGenTest, EmptyCliquesNoRules) {
  auto layout = FourPartLayout();
  ClusterSet set = CooccurringSet(layout);
  RuleGenResult result = GenerateDistanceRules(set, {}, DefaultOptions());
  EXPECT_TRUE(result.rules.empty());
  EXPECT_FALSE(result.truncated);
}

// --- Differential checks against ReferenceGenerateDistanceRules. ---

// Asserts rule-for-rule equality: order, ids, degree bits, the other
// fields, the truncation flag and the evaluation count.
void ExpectSameAsReference(const ClusterSet& set,
                           const std::vector<std::vector<size_t>>& cliques,
                           const RuleGenOptions& opts) {
  const RuleGenResult want = ReferenceGenerateDistanceRules(set, cliques, opts);
  const RuleGenResult got = GenerateDistanceRules(set, cliques, opts);
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.degree_evaluations, want.degree_evaluations);
  ASSERT_EQ(got.rules.size(), want.rules.size());
  for (size_t i = 0; i < want.rules.size(); ++i) {
    const DistanceRule& g = got.rules[i];
    const DistanceRule& w = want.rules[i];
    ASSERT_EQ(g.antecedent, w.antecedent) << "rule " << i;
    ASSERT_EQ(g.consequent, w.consequent) << "rule " << i;
    ASSERT_EQ(std::bit_cast<uint64_t>(g.degree),
              std::bit_cast<uint64_t>(w.degree))
        << "rule " << i << ": " << g.degree << " vs " << w.degree;
    ASSERT_EQ(std::bit_cast<uint64_t>(g.cooccurrence_slack),
              std::bit_cast<uint64_t>(w.cooccurrence_slack));
    ASSERT_EQ(g.support_count, w.support_count);
  }
}

// Checks the untruncated run, then max_rules cut at several points of its
// rule count (0, 1, a third, a half, one short, exact).
void ExpectSameAsReferenceAtCuts(
    const ClusterSet& set, const std::vector<std::vector<size_t>>& cliques,
    RuleGenOptions opts) {
  opts.max_rules = std::numeric_limits<size_t>::max();
  ExpectSameAsReference(set, cliques, opts);
  const size_t total =
      ReferenceGenerateDistanceRules(set, cliques, opts).rules.size();
  ASSERT_GT(total, 3u) << "the random instance should emit rules";
  for (size_t cut : {size_t{0}, size_t{1}, total / 3, total / 2, total - 1,
                     total}) {
    SCOPED_TRACE("max_rules " + std::to_string(cut));
    opts.max_rules = cut;
    ExpectSameAsReference(set, cliques, opts);
  }
}

// `n` clusters over `parts` parts of 1 or 2 dimensions. Each cluster
// summarizes a few tuples drawn around one of `populations` centers, so
// clusters of one population are associated; integer coordinates give
// exact degree ties.
ClusterSet RandomClusterSet(Rng& rng, size_t parts, size_t n,
                            size_t populations) {
  auto layout = std::make_shared<AcfLayout>();
  for (size_t p = 0; p < parts; ++p) {
    layout->parts.push_back({static_cast<size_t>(rng.UniformInt(1, 2)),
                             MetricKind::kEuclidean,
                             std::string("p").append(std::to_string(p))});
  }
  std::vector<std::vector<double>> centers(populations);
  for (auto& c : centers) {
    for (size_t d = 0; d < 2 * parts; ++d) {
      c.push_back(static_cast<double>(rng.UniformInt(0, 20)));
    }
  }
  std::vector<FoundCluster> clusters;
  for (size_t id = 0; id < n; ++id) {
    FoundCluster c;
    c.id = id;
    c.part = static_cast<size_t>(rng.UniformInt(0, parts - 1));
    c.acf = Acf(layout, c.part);
    const auto& center =
        centers[static_cast<size_t>(rng.UniformInt(0, populations - 1))];
    const int64_t tuples = rng.UniformInt(1, 4);
    for (int64_t t = 0; t < tuples; ++t) {
      PartedRow row(parts);
      for (size_t p = 0; p < parts; ++p) {
        for (size_t d = 0; d < layout->parts[p].dim; ++d) {
          row[p].push_back(center[2 * p + d] +
                           static_cast<double>(rng.UniformInt(-2, 2)));
        }
      }
      c.acf.AddRow(row);
    }
    clusters.push_back(std::move(c));
  }
  return ClusterSet(layout, std::move(clusters));
}

// Per-part D0 at the `quantile` of the degrees of consequents on that
// part, so roughly that share of cross-part pairs is associated.
std::vector<double> QuantileThresholds(const ClusterSet& set,
                                       double quantile) {
  std::vector<std::vector<double>> by_part(set.num_parts());
  for (size_t y = 0; y < set.size(); ++y) {
    for (size_t x = 0; x < set.size(); ++x) {
      if (set.cluster(x).part == set.cluster(y).part) continue;
      by_part[set.cluster(y).part].push_back(
          DegreeOfAssociation(set, {x}, {y}, ClusterMetric::kD2AvgInter));
    }
  }
  std::vector<double> limits;
  for (auto& d : by_part) {
    std::sort(d.begin(), d.end());
    limits.push_back(
        d.empty() ? 0.0 : d[static_cast<size_t>(quantile * (d.size() - 1))]);
  }
  return limits;
}

// `count` random cliques of `min_size`..`max_size` distinct members, so
// they overlap; the last one is shuffled out of id order.
std::vector<std::vector<size_t>> RandomCliques(Rng& rng, size_t n,
                                               size_t count, size_t min_size,
                                               size_t max_size) {
  std::vector<size_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  std::vector<std::vector<size_t>> cliques;
  for (size_t q = 0; q < count; ++q) {
    rng.Shuffle(ids);
    const auto size = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(min_size), static_cast<int64_t>(max_size)));
    std::vector<size_t> clique(ids.begin(), ids.begin() + size);
    if (q + 1 < count) std::sort(clique.begin(), clique.end());
    cliques.push_back(std::move(clique));
  }
  return cliques;
}

TEST(RuleGenOracleTest, MatchesReferenceOnRandomClusterSets) {
  struct Shape {
    size_t parts, clusters, cliques, max_antecedent, max_consequent;
    double density;
  };
  const Shape shapes[] = {{4, 14, 5, 3, 2, 0.4},
                          {5, 18, 6, 4, 3, 0.25},
                          {6, 16, 4, 2, 1, 0.5},
                          {4, 12, 7, 4, 3, 0.3}};
  uint64_t seed = 1600;
  for (const Shape& shape : shapes) {
    for (int rep = 0; rep < 3; ++rep, ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      Rng rng(seed);
      const ClusterSet set =
          RandomClusterSet(rng, shape.parts, shape.clusters, 3);
      auto cliques = RandomCliques(rng, shape.clusters, shape.cliques, 3, 8);
      cliques.push_back(cliques.front());  // a repeated clique
      RuleGenOptions opts;
      opts.degree_thresholds = QuantileThresholds(set, shape.density);
      opts.max_antecedent = shape.max_antecedent;
      opts.max_consequent = shape.max_consequent;
      ExpectSameAsReferenceAtCuts(set, cliques, opts);
    }
  }
}

TEST(RuleGenOracleTest, MatchesReferenceOnCliqueWiderThan64) {
  Rng rng(1650);
  const size_t n = 80;
  const ClusterSet set = RandomClusterSet(rng, 5, n, 6);
  // One 70-member clique (two mask words per consequent) beside smaller
  // overlapping ones.
  std::vector<std::vector<size_t>> cliques =
      RandomCliques(rng, n, 3, 4, 9);
  cliques.insert(cliques.begin(), RandomCliques(rng, n, 1, 70, 70)[0]);
  std::sort(cliques.front().begin(), cliques.front().end());
  RuleGenOptions opts;
  opts.degree_thresholds = QuantileThresholds(set, 0.06);
  opts.max_antecedent = 3;
  opts.max_consequent = 2;
  ExpectSameAsReferenceAtCuts(set, cliques, opts);
}

TEST(RuleGenOracleTest, MatchesReferenceWithScalarThreshold) {
  Rng rng(1660);
  const ClusterSet set = RandomClusterSet(rng, 4, 15, 3);
  const auto cliques = RandomCliques(rng, 15, 6, 2, 7);
  RuleGenOptions opts;
  opts.degree_threshold = 3.0;
  opts.max_antecedent = 4;
  opts.max_consequent = 3;
  ExpectSameAsReferenceAtCuts(set, cliques, opts);
}

}  // namespace
}  // namespace dar
