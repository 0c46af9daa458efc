#include "core/clustering_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "core/session.h"
#include "graph/clique.h"

namespace dar {
namespace {

std::shared_ptr<const AcfLayout> ThreePartLayout() {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "A"},
                   {1, MetricKind::kEuclidean, "B"},
                   {1, MetricKind::kEuclidean, "C"}};
  return layout;
}

// Builds a cluster on `part` from tuples given as (a, b, c) triples.
FoundCluster MakeCluster(std::shared_ptr<const AcfLayout> layout, size_t id,
                         size_t part,
                         const std::vector<std::array<double, 3>>& tuples) {
  FoundCluster c;
  c.id = id;
  c.part = part;
  c.acf = Acf(layout, part);
  for (const auto& t : tuples) {
    c.acf.AddRow({{t[0]}, {t[1]}, {t[2]}});
  }
  return c;
}

TEST(ClusteringGraphTest, CooccurringClustersGetEdge) {
  auto layout = ThreePartLayout();
  // Clusters from the same tuple population: A-cluster at a=10, B-cluster
  // at b=20 (both summarize tuples (10, 20, 99)).
  std::vector<FoundCluster> clusters;
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 20, 99}, {10, 20, 98}}));
  clusters.push_back(MakeCluster(layout, 1, 1, {{10, 20, 99}, {10, 20, 98}}));
  ClusterSet set(layout, std::move(clusters));

  ClusteringGraphOptions opts;
  opts.d0 = {1.0, 1.0, 1.0};
  ClusteringGraph graph(set, opts);
  EXPECT_EQ(graph.num_edges(), 1u);
  EXPECT_TRUE(graph.HasEdge(0, 1));
  EXPECT_TRUE(graph.HasEdge(1, 0));
}

TEST(ClusteringGraphTest, NonCooccurringClustersNoEdge) {
  auto layout = ThreePartLayout();
  std::vector<FoundCluster> clusters;
  // A-cluster over tuples whose b values are far from the B-cluster.
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 500, 0}, {10, 510, 0}}));
  clusters.push_back(MakeCluster(layout, 1, 1, {{300, 20, 0}, {310, 20, 0}}));
  ClusterSet set(layout, std::move(clusters));

  ClusteringGraphOptions opts;
  opts.d0 = {1.0, 1.0, 1.0};
  ClusteringGraph graph(set, opts);
  EXPECT_EQ(graph.num_edges(), 0u);
  EXPECT_FALSE(graph.HasEdge(0, 1));
}

TEST(ClusteringGraphTest, SamePartClustersNeverConnect) {
  auto layout = ThreePartLayout();
  std::vector<FoundCluster> clusters;
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 0, 0}}));
  clusters.push_back(MakeCluster(layout, 1, 0, {{10, 0, 0}}));
  ClusterSet set(layout, std::move(clusters));
  ClusteringGraphOptions opts;
  opts.d0 = {100.0, 100.0, 100.0};
  ClusteringGraph graph(set, opts);
  EXPECT_EQ(graph.num_edges(), 0u);
}

TEST(ClusteringGraphTest, EdgeRequiresBothDirections) {
  auto layout = ThreePartLayout();
  std::vector<FoundCluster> clusters;
  // A-cluster's b-image is near the B-cluster, but the B-cluster's a-image
  // is far from the A-cluster: no edge (both conditions required).
  clusters.push_back(MakeCluster(layout, 0, 0, {{10, 20, 0}, {10, 21, 0}}));
  clusters.push_back(MakeCluster(layout, 1, 1, {{900, 20, 0}, {901, 21, 0}}));
  ClusterSet set(layout, std::move(clusters));
  ClusteringGraphOptions opts;
  opts.d0 = {5.0, 5.0, 5.0};
  ClusteringGraph graph(set, opts);
  EXPECT_EQ(graph.num_edges(), 0u);
}

TEST(ClusteringGraphTest, PruningHeuristicPreservesResult) {
  // Random clusters; the §6.2 pruning must not change the edge set.
  auto layout = ThreePartLayout();
  Rng rng(71);
  std::vector<FoundCluster> with_prune_clusters, without;
  for (size_t id = 0; id < 20; ++id) {
    size_t part = id % 3;
    std::vector<std::array<double, 3>> tuples;
    double base_a = rng.Uniform(0, 50), base_b = rng.Uniform(0, 50),
           base_c = rng.Uniform(0, 50);
    double spread = rng.Uniform(0.1, 20);  // some images diffuse, some tight
    for (int t = 0; t < 8; ++t) {
      tuples.push_back({base_a + rng.Uniform(-spread, spread),
                        base_b + rng.Uniform(-spread, spread),
                        base_c + rng.Uniform(-spread, spread)});
    }
    with_prune_clusters.push_back(MakeCluster(layout, id, part, tuples));
    without.push_back(MakeCluster(layout, id, part, tuples));
  }
  ClusterSet set_a(layout, std::move(with_prune_clusters));
  ClusterSet set_b(layout, std::move(without));

  ClusteringGraphOptions opts;
  opts.d0 = {6.0, 6.0, 6.0};
  opts.prune_low_density_images = true;
  ClusteringGraph pruned(set_a, opts);
  opts.prune_low_density_images = false;
  ClusteringGraph full(set_b, opts);

  EXPECT_EQ(pruned.num_edges(), full.num_edges());
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = 0; j < 20; ++j) {
      EXPECT_EQ(pruned.HasEdge(i, j), full.HasEdge(i, j));
    }
  }
  EXPECT_GT(pruned.comparisons_skipped(), 0);
  EXPECT_LT(pruned.comparisons_made(), full.comparisons_made());
}

// --- maximal cliques ---

// Brute-force maximal cliques for reference.
std::set<std::vector<uint32_t>> BruteMaximalCliques(
    size_t n, const std::function<bool(size_t, size_t)>& edge) {
  std::set<std::vector<uint32_t>> cliques;
  for (uint64_t mask = 1; mask < (1ull << n); ++mask) {
    std::vector<uint32_t> nodes;
    for (uint32_t i = 0; i < n; ++i) {
      if (mask & (1ull << i)) nodes.push_back(i);
    }
    bool is_clique = true;
    for (size_t i = 0; i < nodes.size() && is_clique; ++i) {
      for (size_t j = i + 1; j < nodes.size(); ++j) {
        if (!edge(nodes[i], nodes[j])) {
          is_clique = false;
          break;
        }
      }
    }
    if (!is_clique) continue;
    // Maximal?
    bool maximal = true;
    for (size_t v = 0; v < n && maximal; ++v) {
      if (mask & (1ull << v)) continue;
      bool extends = true;
      for (uint32_t u : nodes) {
        if (!edge(u, v)) {
          extends = false;
          break;
        }
      }
      if (extends) maximal = false;
    }
    if (maximal) cliques.insert(nodes);
  }
  return cliques;
}

// Builds a ClusterSet whose clustering graph realizes a given random graph:
// n parts, one cluster per part; an edge (i, j) is realized by making the
// mutual images near, a non-edge by making them far.
TEST(CliqueTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(72);
  for (int trial = 0; trial < 12; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(2, 9));
    std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        adj[i][j] = adj[j][i] = rng.Bernoulli(0.45);
      }
    }
    // Build one cluster per part in an n-part layout; encode adjacency by
    // constructing, for each cluster pair, images that are near (0) or far.
    auto layout = std::make_shared<AcfLayout>();
    for (size_t p = 0; p < n; ++p) {
      layout->parts.push_back({1, MetricKind::kEuclidean,
                               "P" + std::to_string(p)});
    }
    std::vector<FoundCluster> clusters;
    for (size_t i = 0; i < n; ++i) {
      FoundCluster c;
      c.id = i;
      c.part = i;
      c.acf = Acf(layout, i);
      // Tuple for cluster i: own coordinate 0; coordinate on part j is 0 if
      // edge(i, j) else 1000 * (i + 1) (far and distinct).
      PartedRow row(n);
      for (size_t j = 0; j < n; ++j) {
        double v = (i == j || adj[i][j]) ? 0.0 : 1000.0 * (i + 1);
        row[j] = {v};
      }
      c.acf.AddRow(row);
      clusters.push_back(std::move(c));
    }
    ClusterSet set(layout, std::move(clusters));
    ClusteringGraphOptions opts;
    opts.d0.assign(n, 1.0);
    ClusteringGraph graph(set, opts);
    // Check the realized graph matches the random adjacency.
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        ASSERT_EQ(graph.HasEdge(i, j), static_cast<bool>(adj[i][j]))
            << "trial " << trial << " edge " << i << "," << j;
      }
    }
    graph::CliqueResult result =
        graph::EnumerateMaximalCliques(graph.graph(), {});
    std::set<std::vector<uint32_t>> got(result.cliques.begin(),
                                        result.cliques.end());
    auto expect = BruteMaximalCliques(
        n, [&](size_t a, size_t b) { return bool(adj[a][b]); });
    EXPECT_EQ(got, expect) << "trial " << trial;
  }
}

TEST(CliqueTest, IsolatedNodesAreTrivialCliques) {
  auto layout = ThreePartLayout();
  std::vector<FoundCluster> clusters;
  clusters.push_back(MakeCluster(layout, 0, 0, {{1, 999, 0}}));
  clusters.push_back(MakeCluster(layout, 1, 1, {{999, 1, 0}}));
  ClusterSet set(layout, std::move(clusters));
  ClusteringGraphOptions opts;
  opts.d0 = {1.0, 1.0, 1.0};
  ClusteringGraph graph(set, opts);
  auto cliques = graph::EnumerateMaximalCliques(graph.graph(), {}).cliques;
  ASSERT_EQ(cliques.size(), 2u);
  EXPECT_EQ(cliques[0], (std::vector<uint32_t>{0}));
  EXPECT_EQ(cliques[1], (std::vector<uint32_t>{1}));
}

TEST(CliqueTest, CapTruncatesLoudly) {
  auto layout = ThreePartLayout();
  std::vector<FoundCluster> clusters;
  for (size_t p = 0; p < 3; ++p) {
    clusters.push_back(MakeCluster(layout, p, p, {{5, 6, 7}, {5, 6, 7}}));
  }
  ClusterSet set(layout, std::move(clusters));
  ClusteringGraphOptions opts;
  opts.d0 = {1.0, 1.0, 1.0};
  ClusteringGraph graph(set, opts);
  graph::CliqueResult uncapped =
      graph::EnumerateMaximalCliques(graph.graph(), {});
  EXPECT_FALSE(uncapped.clique_cap_truncated);
  EXPECT_FALSE(uncapped.step_budget_truncated);
  EXPECT_EQ(uncapped.cliques.size(), 1u);
  // Build a graph with multiple maximal cliques and cap below the count.
  std::vector<FoundCluster> clusters2;
  clusters2.push_back(MakeCluster(layout, 0, 0, {{1, 999, 0}}));
  clusters2.push_back(MakeCluster(layout, 1, 1, {{999, 1, 0}}));
  ClusterSet set2(layout, std::move(clusters2));
  ClusteringGraph graph2(set2, opts);  // two isolated nodes => 2 cliques
  graph::CliqueOptions cap_one;
  cap_one.max_cliques = 1;
  graph::CliqueResult limited =
      graph::EnumerateMaximalCliques(graph2.graph(), cap_one);
  EXPECT_TRUE(limited.clique_cap_truncated);
  EXPECT_EQ(limited.cliques.size(), 1u);
}

TEST(CliqueTest, CompleteGraphSingleClique) {
  auto layout = ThreePartLayout();
  std::vector<FoundCluster> clusters;
  // Three clusters from one tuple population: pairwise co-occurring.
  for (size_t p = 0; p < 3; ++p) {
    clusters.push_back(MakeCluster(layout, p, p, {{5, 6, 7}, {5, 6, 7}}));
  }
  ClusterSet set(layout, std::move(clusters));
  ClusteringGraphOptions opts;
  opts.d0 = {1.0, 1.0, 1.0};
  ClusteringGraph graph(set, opts);
  EXPECT_EQ(graph.num_edges(), 3u);
  auto cliques = graph::EnumerateMaximalCliques(graph.graph(), {}).cliques;
  ASSERT_EQ(cliques.size(), 1u);
  EXPECT_EQ(cliques[0], (std::vector<uint32_t>{0, 1, 2}));
}

}  // namespace
}  // namespace dar
