// Tests for ComputeRuleStats: the signature-counting contingency scan
// against the per-row rule test it replaced, on seeded random relations,
// serially and at 1, 2 and 8 threads.

#include "core/rule_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "birch/acf.h"
#include "common/executor.h"
#include "common/random.h"
#include "core/model.h"
#include "core/rules.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace dar {
namespace {

// The contingency scan as first written: every row is assigned once per
// part, then every rule is tested against that row. Kept as the oracle
// that ComputeRuleStats must match cell for cell.
struct ShardCounts {
  std::vector<int64_t> antecedent;
  std::vector<int64_t> consequent;
  std::vector<int64_t> both;
};

bool SideMatches(const std::vector<size_t>& side, const ClusterSet& clusters,
                 std::span<const int64_t> assignment) {
  for (size_t id : side) {
    const FoundCluster& c = clusters.cluster(id);
    if (assignment[c.part] != static_cast<int64_t>(id)) return false;
  }
  return true;
}

Result<std::vector<RuleStats>> ReferenceComputeRuleStats(
    const Relation& rel, const AttributePartition& partition,
    const ClusterSet& clusters, std::span<const DistanceRule> rules,
    Executor* executor) {
  std::vector<RuleStats> stats(rules.size());
  for (RuleStats& s : stats) s.total = static_cast<int64_t>(rel.num_rows());
  if (rules.empty() || rel.num_rows() == 0) return stats;

  const size_t parallelism =
      executor != nullptr ? static_cast<size_t>(executor->parallelism()) : 1;
  const size_t num_shards =
      std::max<size_t>(1, std::min(parallelism, rel.num_rows()));
  const size_t rows_per_shard =
      (rel.num_rows() + num_shards - 1) / num_shards;
  std::vector<ShardCounts> shards(num_shards);
  for (ShardCounts& shard : shards) {
    shard.antecedent.assign(rules.size(), 0);
    shard.consequent.assign(rules.size(), 0);
    shard.both.assign(rules.size(), 0);
  }

  auto scan_shard = [&](size_t s) -> Status {
    const size_t begin = s * rows_per_shard;
    const size_t end = std::min(rel.num_rows(), begin + rows_per_shard);
    ShardCounts& counts = shards[s];
    std::vector<double> buf;
    std::vector<int64_t> assignment(partition.num_parts(), -1);
    for (size_t r = begin; r < end; ++r) {
      for (size_t p = 0; p < partition.num_parts(); ++p) {
        rel.ProjectRow(r, partition.part(p).columns, buf);
        auto assigned = clusters.AssignToCluster(p, buf);
        assignment[p] = assigned.ok() ? static_cast<int64_t>(*assigned) : -1;
      }
      for (size_t k = 0; k < rules.size(); ++k) {
        const bool a = SideMatches(rules[k].antecedent, clusters, assignment);
        const bool c = SideMatches(rules[k].consequent, clusters, assignment);
        if (a) ++counts.antecedent[k];
        if (c) ++counts.consequent[k];
        if (a && c) ++counts.both[k];
      }
    }
    return Status::OK();
  };

  if (executor != nullptr) {
    DAR_RETURN_IF_ERROR(executor->ParallelFor(num_shards, scan_shard));
  } else {
    for (size_t s = 0; s < num_shards; ++s) {
      DAR_RETURN_IF_ERROR(scan_shard(s));
    }
  }

  // Shard-order merge: integer sums, so the totals are executor-independent.
  for (const ShardCounts& shard : shards) {
    for (size_t k = 0; k < rules.size(); ++k) {
      stats[k].antecedent += shard.antecedent[k];
      stats[k].consequent += shard.consequent[k];
      stats[k].both += shard.both[k];
    }
  }
  return stats;
}

// A relation whose part p has `dims[p]` columns on [0, 100), with
// `clusters_per_part[p]` clusters on it (0 = a part without frequent
// clusters). `centers[p][j]` is the centroid cluster j of part p is
// built around.
struct Instance {
  Relation rel;
  AttributePartition partition;
  ClusterSet clusters;
  std::vector<std::vector<std::vector<double>>> centers;
};

Instance MakeInstance(Rng& rng, const std::vector<size_t>& dims,
                      const std::vector<size_t>& clusters_per_part) {
  std::vector<Attribute> attributes;
  std::vector<std::pair<std::vector<std::string>, MetricKind>> parts;
  auto layout = std::make_shared<AcfLayout>();
  for (size_t p = 0; p < dims.size(); ++p) {
    std::vector<std::string> names;
    for (size_t d = 0; d < dims[p]; ++d) {
      names.push_back(
          std::string("a").append(std::to_string(attributes.size())));
      attributes.push_back({names.back(), AttributeKind::kInterval});
    }
    parts.emplace_back(names, MetricKind::kEuclidean);
    layout->parts.push_back({dims[p], MetricKind::kEuclidean,
                             std::string("p").append(std::to_string(p))});
  }
  auto schema = Schema::Make(attributes);
  EXPECT_TRUE(schema.ok());
  auto partition = AttributePartition::Make(*schema, parts);
  EXPECT_TRUE(partition.ok());

  Instance out{Relation(*schema), std::move(*partition), ClusterSet(), {}};
  std::vector<FoundCluster> found;
  out.centers.resize(dims.size());
  for (size_t p = 0; p < dims.size(); ++p) {
    for (size_t j = 0; j < clusters_per_part[p]; ++j) {
      std::vector<double> center(dims[p]);
      for (double& v : center) v = rng.Uniform(0, 100);
      FoundCluster c;
      c.id = found.size();
      c.part = p;
      c.acf = Acf(layout, p);
      for (int t = 0; t < 3; ++t) {
        PartedRow row(dims.size());
        for (size_t q = 0; q < dims.size(); ++q) {
          for (size_t d = 0; d < dims[q]; ++d) {
            row[q].push_back(q == p ? center[d] + rng.Uniform(-1, 1)
                                    : rng.Uniform(0, 100));
          }
        }
        c.acf.AddRow(row);
      }
      out.centers[p].push_back(std::move(center));
      found.push_back(std::move(c));
    }
  }
  out.clusters = ClusterSet(layout, std::move(found));
  return out;
}

// Appends `n` rows uniform over every column.
void AppendNoise(Rng& rng, Instance& inst, size_t n) {
  std::vector<double> row(inst.rel.num_columns());
  for (size_t i = 0; i < n; ++i) {
    for (double& v : row) v = rng.Uniform(0, 100);
    ASSERT_TRUE(inst.rel.AppendRow(row).ok());
  }
}

// Appends `n` rows drawn from `populations` planted patterns: pattern j
// puts the row near center (j mod |centers|) on every part with clusters,
// so few signatures cover many rows each.
void AppendClustered(Rng& rng, Instance& inst, size_t n,
                     size_t populations) {
  std::vector<double> row(inst.rel.num_columns());
  for (size_t i = 0; i < n; ++i) {
    const auto j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(populations) - 1));
    for (size_t p = 0; p < inst.partition.num_parts(); ++p) {
      const std::vector<size_t>& columns = inst.partition.part(p).columns;
      const auto& centers = inst.centers[p];
      for (size_t d = 0; d < columns.size(); ++d) {
        row[columns[d]] =
            centers.empty()
                ? rng.Uniform(0, 100)
                : centers[j % centers.size()][d] + rng.Uniform(-2, 2);
      }
    }
    ASSERT_TRUE(inst.rel.AppendRow(row).ok());
  }
}

// `count` rules over the parts that have clusters: each side spans 1 to
// `max_side_parts` distinct parts, the two sides disjoint, one random
// cluster per part.
std::vector<DistanceRule> RandomRules(Rng& rng, const ClusterSet& clusters,
                                      size_t count, size_t max_side_parts) {
  std::vector<size_t> parts;
  for (size_t p = 0; p < clusters.num_parts(); ++p) {
    if (!clusters.ClustersOnPart(p).empty()) parts.push_back(p);
  }
  auto pick = [&](size_t p) {
    const std::vector<size_t>& ids = clusters.ClustersOnPart(p);
    return ids[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
  };
  std::vector<DistanceRule> rules;
  for (size_t k = 0; k < count; ++k) {
    rng.Shuffle(parts);
    const auto max_a = static_cast<int64_t>(
        std::min(max_side_parts, parts.size() - 1));
    const auto a = static_cast<size_t>(rng.UniformInt(1, max_a));
    const auto max_c = static_cast<int64_t>(
        std::min(max_side_parts, parts.size() - a));
    const auto c = static_cast<size_t>(rng.UniformInt(1, max_c));
    DistanceRule rule;
    for (size_t i = 0; i < a; ++i) rule.antecedent.push_back(pick(parts[i]));
    for (size_t i = a; i < a + c; ++i) {
      rule.consequent.push_back(pick(parts[i]));
    }
    std::sort(rule.antecedent.begin(), rule.antecedent.end());
    std::sort(rule.consequent.begin(), rule.consequent.end());
    rule.degree = static_cast<double>(k);
    rules.push_back(std::move(rule));
  }
  return rules;
}

size_t DistinctSignatures(const Instance& inst) {
  std::set<std::vector<int64_t>> seen;
  inst.clusters.ForEachRowAssignment(
      inst.rel, inst.partition, 0, inst.rel.num_rows(),
      [&](size_t, std::span<const int64_t> assignment) {
        seen.emplace(assignment.begin(), assignment.end());
      });
  return seen.size();
}

// ComputeRuleStats equals the reference serially and at 1, 2 and 8
// threads, cell for cell.
void ExpectMatchesReference(const Instance& inst,
                            const std::vector<DistanceRule>& rules) {
  auto expected = ReferenceComputeRuleStats(inst.rel, inst.partition,
                                            inst.clusters, rules, nullptr);
  ASSERT_TRUE(expected.ok());
  ThreadPoolExecutor one(1);
  ThreadPoolExecutor two(2);
  ThreadPoolExecutor eight(8);
  const std::vector<Executor*> executors = {nullptr, &one, &two, &eight};
  for (Executor* executor : executors) {
    const int threads = executor == nullptr ? 0 : executor->parallelism();
    auto actual = ComputeRuleStats(inst.rel, inst.partition, inst.clusters,
                                   rules, executor);
    ASSERT_TRUE(actual.ok()) << actual.status();
    ASSERT_EQ(actual->size(), expected->size());
    for (size_t k = 0; k < rules.size(); ++k) {
      const RuleStats& a = (*actual)[k];
      const RuleStats& e = (*expected)[k];
      EXPECT_EQ(a.total, e.total) << "rule " << k << " threads " << threads;
      EXPECT_EQ(a.antecedent, e.antecedent)
          << "rule " << k << " threads " << threads;
      EXPECT_EQ(a.consequent, e.consequent)
          << "rule " << k << " threads " << threads;
      EXPECT_EQ(a.both, e.both) << "rule " << k << " threads " << threads;
    }
  }
}

TEST(RuleStatsOracleTest, MatchesReferenceOnPlantedRows) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    std::vector<size_t> dims;
    std::vector<size_t> clusters;
    for (int p = 0; p < 5; ++p) {
      dims.push_back(static_cast<size_t>(rng.UniformInt(1, 2)));
      clusters.push_back(static_cast<size_t>(rng.UniformInt(2, 5)));
    }
    Instance inst = MakeInstance(rng, dims, clusters);
    AppendClustered(rng, inst, 900, 4);
    AppendNoise(rng, inst, 100);
    // Some signature carries many rows, so a scan that counted each
    // signature once would differ.
    ASSERT_LT(DistinctSignatures(inst), inst.rel.num_rows() / 2);
    ExpectMatchesReference(inst, RandomRules(rng, inst.clusters, 60, 3));
  }
}

TEST(RuleStatsOracleTest, MatchesReferenceOnUniformNoise) {
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Instance inst = MakeInstance(rng, {1, 2, 1, 2}, {10, 10, 10, 10});
    AppendNoise(rng, inst, 400);
    // 10^4 possible signatures over 400 rows: nearly one per row.
    ASSERT_GT(DistinctSignatures(inst), inst.rel.num_rows() * 9 / 10);
    ExpectMatchesReference(inst, RandomRules(rng, inst.clusters, 80, 3));
  }
}

TEST(RuleStatsOracleTest, MatchesReferenceWithPartWithoutClusters) {
  Rng rng(21);
  Instance inst = MakeInstance(rng, {1, 2, 1, 1}, {3, 0, 4, 2});
  ASSERT_TRUE(inst.clusters.ClustersOnPart(1).empty());
  AppendClustered(rng, inst, 500, 3);
  AppendNoise(rng, inst, 100);
  ExpectMatchesReference(inst, RandomRules(rng, inst.clusters, 40, 2));
}

TEST(RuleStatsOracleTest, MatchesReferenceWithFewerRowsThanShards) {
  Rng rng(31);
  Instance inst = MakeInstance(rng, {1, 1, 2}, {3, 3, 3});
  AppendClustered(rng, inst, 2, 3);
  AppendNoise(rng, inst, 1);
  ExpectMatchesReference(inst, RandomRules(rng, inst.clusters, 20, 2));
}

TEST(RuleStatsOracleTest, EmptyRulesAndEmptyRelation) {
  Rng rng(41);
  Instance inst = MakeInstance(rng, {1, 1, 1}, {2, 2, 2});
  const std::vector<DistanceRule> rules =
      RandomRules(rng, inst.clusters, 10, 2);

  // No rows: every table is all zeros.
  ExpectMatchesReference(inst, rules);
  auto empty = ComputeRuleStats(inst.rel, inst.partition, inst.clusters,
                                rules, nullptr);
  ASSERT_TRUE(empty.ok());
  for (const RuleStats& s : *empty) {
    EXPECT_EQ(s.total, 0);
    EXPECT_EQ(s.antecedent, 0);
    EXPECT_EQ(s.consequent, 0);
    EXPECT_EQ(s.both, 0);
  }

  // No rules: no tables, whatever the rows.
  AppendNoise(rng, inst, 50);
  ExpectMatchesReference(inst, {});
  auto none = ComputeRuleStats(inst.rel, inst.partition, inst.clusters, {},
                               nullptr);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

}  // namespace
}  // namespace dar
