#include "birch/acf_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/random.h"

namespace dar {
namespace {

std::shared_ptr<const AcfLayout> OnePartLayout() {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "X"}};
  return layout;
}

std::shared_ptr<const AcfLayout> TwoPartLayout() {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "X"},
                   {1, MetricKind::kEuclidean, "Y"}};
  return layout;
}

AcfTreeOptions SmallTreeOptions() {
  AcfTreeOptions opts;
  opts.branching_factor = 4;
  opts.leaf_capacity = 4;
  opts.memory_budget_bytes = 64u << 20;  // effectively unbounded
  return opts;
}

// Sums the LS of every cluster image on `part`, over clusters + outliers.
double TotalLs(const AcfTree& tree, size_t part) {
  double total = 0;
  for (const auto& c : tree.ExtractClusters()) total += c.image(part).ls()[0];
  for (const auto& c : tree.outliers()) total += c.image(part).ls()[0];
  return total;
}

TEST(AcfTreeTest, SinglePointSingleCluster) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  ASSERT_TRUE(tree.InsertPoint({{5.0}}).ok());
  auto clusters = tree.ExtractClusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].n(), 1);
  EXPECT_DOUBLE_EQ(clusters[0].Centroid()[0], 5.0);
}

TEST(AcfTreeTest, IdenticalPointsMergeAtThresholdZero) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{3.0}}).ok());
  }
  auto clusters = tree.ExtractClusters();
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].n(), 10);
}

TEST(AcfTreeTest, DistinctPointsStaySeparateAtThresholdZero) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{double(i) * 10}}).ok());
  }
  EXPECT_EQ(tree.ExtractClusters().size(), 8u);
}

TEST(AcfTreeTest, ThresholdAbsorbsNearbyPoints) {
  AcfTreeOptions opts = SmallTreeOptions();
  opts.initial_threshold = 2.0;
  AcfTree tree(OnePartLayout(), 0, opts);
  // Two groups around 0 and 100.
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    double base = (i % 2 == 0) ? 0.0 : 100.0;
    ASSERT_TRUE(tree.InsertPoint({{base + rng.Uniform(-0.5, 0.5)}}).ok());
  }
  auto clusters = tree.ExtractClusters();
  ASSERT_EQ(clusters.size(), 2u);
  EXPECT_EQ(clusters[0].n() + clusters[1].n(), 50);
}

TEST(AcfTreeTest, MassConservedThroughSplits) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{rng.Uniform(0, 1000)}}).ok());
  }
  EXPECT_EQ(tree.TotalMass(), 500);
  EXPECT_GT(tree.Stats().num_nodes, 1u);
  EXPECT_EQ(tree.Stats().num_leaf_entries, tree.ExtractClusters().size());
}

TEST(AcfTreeTest, LinearSumsConservedThroughSplits) {
  AcfTree tree(TwoPartLayout(), 0, SmallTreeOptions());
  Rng rng(5);
  double sum_x = 0, sum_y = 0;
  for (int i = 0; i < 300; ++i) {
    double x = rng.Uniform(0, 100), y = rng.Uniform(-50, 50);
    sum_x += x;
    sum_y += y;
    ASSERT_TRUE(tree.InsertPoint({{x}, {y}}).ok());
  }
  EXPECT_NEAR(TotalLs(tree, 0), sum_x, 1e-6);
  EXPECT_NEAR(TotalLs(tree, 1), sum_y, 1e-6);
}

TEST(AcfTreeTest, MemoryPressureTriggersRebuild) {
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 16 << 10;  // 16 KB: forces threshold adaptation
  AcfTree tree(OnePartLayout(), 0, opts);
  Rng rng(6);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{rng.Uniform(0, 1e6)}}).ok());
  }
  EXPECT_GT(tree.rebuild_count(), 0);
  EXPECT_GT(tree.threshold(), 0.0);
  EXPECT_EQ(tree.TotalMass(), 3000);
  EXPECT_LE(tree.Stats().approx_bytes, opts.memory_budget_bytes);
}

TEST(AcfTreeTest, RebuildPreservesLinearSums) {
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 16 << 10;
  AcfTree tree(TwoPartLayout(), 0, opts);
  Rng rng(7);
  double sum_x = 0, sum_y = 0;
  for (int i = 0; i < 2000; ++i) {
    double x = rng.Uniform(0, 1e5), y = rng.Uniform(0, 10);
    sum_x += x;
    sum_y += y;
    ASSERT_TRUE(tree.InsertPoint({{x}, {y}}).ok());
  }
  ASSERT_GT(tree.rebuild_count(), 0);
  EXPECT_NEAR(TotalLs(tree, 0) / sum_x, 1.0, 1e-9);
  EXPECT_NEAR(TotalLs(tree, 1) / sum_y, 1.0, 1e-9);
}

TEST(AcfTreeTest, ImpossibleBudgetFailsCleanly) {
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 1;  // can never hold even the root
  AcfTree tree(OnePartLayout(), 0, opts);
  Status s = tree.InsertPoint({{1.0}});
  EXPECT_TRUE(s.IsResourceExhausted());
}

TEST(AcfTreeTest, InsertPointValidatesShape) {
  AcfTree tree(TwoPartLayout(), 0, SmallTreeOptions());
  EXPECT_TRUE(tree.InsertPoint({{1.0}}).IsInvalidArgument());  // 1 part
  EXPECT_TRUE(
      tree.InsertPoint({{1.0, 2.0}, {3.0}}).IsInvalidArgument());  // bad dim
}

TEST(AcfTreeTest, InsertSummaryEquivalentToPoints) {
  auto layout = OnePartLayout();
  AcfTreeOptions opts = SmallTreeOptions();
  opts.initial_threshold = 1.0;
  AcfTree by_points(layout, 0, opts);
  AcfTree by_summary(layout, 0, opts);
  Rng rng(8);
  Acf batch(layout, 0);
  for (int i = 0; i < 20; ++i) {
    double x = 50 + rng.Uniform(-0.2, 0.2);
    ASSERT_TRUE(by_points.InsertPoint({{x}}).ok());
    batch.AddRow({{x}});
  }
  ASSERT_TRUE(by_summary.InsertSummary(std::move(batch)).ok());
  EXPECT_EQ(by_points.TotalMass(), by_summary.TotalMass());
  auto a = by_points.ExtractClusters();
  auto b = by_summary.ExtractClusters();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_NEAR(a[0].Centroid()[0], b[0].Centroid()[0], 1e-9);
}

TEST(AcfTreeTest, InsertSummaryValidates) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  // Different layout object => rejected.
  Acf wrong(OnePartLayout(), 0);
  wrong.AddRow({{1.0}});
  EXPECT_TRUE(tree.InsertSummary(std::move(wrong)).IsInvalidArgument());
  // Empty summary => rejected.
  auto layout = OnePartLayout();
  AcfTree tree2(layout, 0, SmallTreeOptions());
  Acf empty(layout, 0);
  EXPECT_TRUE(tree2.InsertSummary(std::move(empty)).IsInvalidArgument());
}

TEST(AcfTreeTest, OutlierPagingAndReabsorption) {
  auto layout = OnePartLayout();
  AcfTreeOptions opts = SmallTreeOptions();
  opts.memory_budget_bytes = 12 << 10;
  opts.outlier_entry_min_n = 5;
  AcfTree tree(layout, 0, opts);
  Rng rng(9);
  // A dense population plus rare scattered singletons.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{rng.Gaussian(100, 1.0)}}).ok());
    if (i % 40 == 0) {
      ASSERT_TRUE(tree.InsertPoint({{rng.Uniform(1e5, 1e6)}}).ok());
    }
  }
  ASSERT_GT(tree.rebuild_count(), 0);
  ASSERT_TRUE(tree.FinishScan().ok());
  // Every point is accounted for: clusters + confirmed outliers.
  EXPECT_EQ(tree.TotalMass(), 2000 + 50);
}

TEST(AcfTreeTest, FinishScanAbsorbsCloseOutliers) {
  auto layout = OnePartLayout();
  AcfTreeOptions opts = SmallTreeOptions();
  opts.initial_threshold = 5.0;
  AcfTree tree(layout, 0, opts);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{50.0}}).ok());
  }
  // Fake a paged-out outlier near the big cluster by inserting a summary
  // after FinishScan-style reinsertion: exercise via a second tree.
  ASSERT_TRUE(tree.FinishScan().ok());
  EXPECT_TRUE(tree.outliers().empty());
  EXPECT_EQ(tree.TotalMass(), 100);
}

// FNV-1a over the raw bytes of `value`, folded into `h`.
template <typename T>
void HashBytes(uint64_t& h, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
}

void HashAcf(uint64_t& h, const Acf& acf) {
  HashBytes(h, acf.n());
  for (size_t p = 0; p < acf.layout().num_parts(); ++p) {
    const CfVector& img = acf.image(p);
    for (size_t d = 0; d < img.dim(); ++d) {
      HashBytes(h, img.ls()[d]);
      HashBytes(h, img.ss()[d]);
      HashBytes(h, img.min()[d]);
      HashBytes(h, img.max()[d]);
    }
  }
}

// Pins the exact result of a whole tree lifecycle: point inserts under a
// budget tight enough to force rebuilds and outlier paging, a merge of a
// second tree built over an equivalent (not identical) layout, and
// FinishScan. The hash covers every leaf ACF in ExtractClusters order, the
// confirmed outliers and the Stats counters, bit for bit, so any change to
// the insertion descent, the split or the rebuild order shows here.
TEST(AcfTreeTest, LifecycleIsBitExact) {
  auto make_layout = [] {
    auto layout = std::make_shared<AcfLayout>();
    layout->parts = {{2, MetricKind::kEuclidean, "XY"},
                     {1, MetricKind::kManhattan, "Z"},
                     {1, MetricKind::kEuclidean, "W"}};
    return std::shared_ptr<const AcfLayout>(std::move(layout));
  };
  AcfTreeOptions opts;
  opts.branching_factor = 4;
  opts.leaf_capacity = 3;
  opts.memory_budget_bytes = 48u << 10;
  opts.outlier_entry_min_n = 3;
  auto fill = [&](AcfTree& tree, uint64_t seed, int rows) {
    Rng rng(seed);
    for (int i = 0; i < rows; ++i) {
      double cx = 100.0 * static_cast<double>(i % 5);
      PartedRow row = {{cx + rng.Gaussian(0, 4), rng.Uniform(-50, 50)},
                       {rng.Uniform(0, 10)},
                       {rng.Gaussian(1e3, 30)}};
      if (i % 37 == 0) row[0] = {rng.Uniform(1e4, 1e5), rng.Uniform(0, 1)};
      ASSERT_TRUE(tree.InsertPoint(row).ok());
    }
  };
  AcfTree tree(make_layout(), 0, opts);
  AcfTree other(make_layout(), 0, opts);
  fill(tree, 501, 1500);
  fill(other, 502, 700);
  ASSERT_GT(tree.rebuild_count(), 0);
  ASSERT_GT(tree.Stats().num_outliers, 0u);
  ASSERT_TRUE(tree.MergeFrom(other).ok());
  ASSERT_TRUE(tree.FinishScan().ok());
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  EXPECT_EQ(tree.TotalMass(), 2200);

  uint64_t h = 1469598103934665603ull;
  for (const Acf& c : tree.ExtractClusters()) HashAcf(h, c);
  for (const Acf& c : tree.outliers()) HashAcf(h, c);
  AcfTreeStats s = tree.Stats();
  HashBytes(h, s.num_nodes);
  HashBytes(h, s.num_leaf_entries);
  HashBytes(h, s.num_outliers);
  HashBytes(h, s.rebuild_count);
  HashBytes(h, s.threshold);
  HashBytes(h, s.approx_bytes);
  HashBytes(h, s.points_inserted);
  HashBytes(h, s.split_count);
  HashBytes(h, s.height);
  // Recorded before the insertion descent, the split and the leaf walks
  // were each folded into one routine; they must not change a bit.
  EXPECT_EQ(h, 2086272162687541992ull)
      << "clusters=" << s.num_leaf_entries << " outliers=" << s.num_outliers
      << " rebuilds=" << s.rebuild_count << " splits=" << s.split_count;
}

TEST(AcfTreeTest, DeterministicForIdenticalInput) {
  auto run = [] {
    AcfTreeOptions opts = SmallTreeOptions();
    opts.memory_budget_bytes = 32 << 10;
    AcfTree tree(OnePartLayout(), 0, opts);
    Rng rng(11);
    for (int i = 0; i < 1500; ++i) {
      EXPECT_TRUE(tree.InsertPoint({{rng.Uniform(0, 1e4)}}).ok());
    }
    std::vector<double> centroids;
    for (const auto& c : tree.ExtractClusters()) {
      centroids.push_back(c.Centroid()[0]);
    }
    return centroids;
  };
  EXPECT_EQ(run(), run());
}

TEST(AcfTreeTest, StatsReportInsertedPoints) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{double(i)}}).ok());
  }
  AcfTreeStats stats = tree.Stats();
  EXPECT_EQ(stats.points_inserted, 25);
  EXPECT_EQ(stats.rebuild_count, 0);
  EXPECT_GT(stats.approx_bytes, 0u);
}

TEST(AcfTreeTest, HigherThresholdYieldsFewerClusters) {
  auto count_clusters = [](double threshold) {
    AcfTreeOptions opts = SmallTreeOptions();
    opts.initial_threshold = threshold;
    AcfTree tree(OnePartLayout(), 0, opts);
    Rng rng(12);
    for (int i = 0; i < 400; ++i) {
      EXPECT_TRUE(tree.InsertPoint({{rng.Uniform(0, 100)}}).ok());
    }
    return tree.ExtractClusters().size();
  };
  size_t fine = count_clusters(0.5);
  size_t coarse = count_clusters(20.0);
  EXPECT_GT(fine, coarse);
}

TEST(AcfTreeTest, RejectsNonFiniteValues) {
  AcfTree tree(OnePartLayout(), 0, SmallTreeOptions());
  EXPECT_TRUE(tree.InsertPoint({{std::nan("")}}).IsInvalidArgument());
  EXPECT_TRUE(tree.InsertPoint(
                      {{std::numeric_limits<double>::infinity()}})
                  .IsInvalidArgument());
  // The tree is unchanged afterwards.
  EXPECT_EQ(tree.TotalMass(), 0);
  ASSERT_TRUE(tree.InsertPoint({{1.0}}).ok());
  EXPECT_EQ(tree.TotalMass(), 1);
}

TEST(AcfTreeTest, TwoDimensionalPartClusters) {
  // The paper's Latitude+Longitude case: one attribute set of dimension 2
  // with a Euclidean metric.
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{2, MetricKind::kEuclidean, "Lat+Lon"}};
  AcfTreeOptions opts = SmallTreeOptions();
  opts.initial_threshold = 2.0;
  AcfTree tree(layout, 0, opts);
  Rng rng(14);
  // Two spatial clusters.
  for (int i = 0; i < 100; ++i) {
    double lat = (i % 2 == 0) ? 40.0 : 52.0;
    double lon = (i % 2 == 0) ? -74.0 : 13.0;
    ASSERT_TRUE(tree.InsertPoint({{lat + rng.Uniform(-0.3, 0.3),
                                   lon + rng.Uniform(-0.3, 0.3)}})
                    .ok());
  }
  auto clusters = tree.ExtractClusters();
  ASSERT_EQ(clusters.size(), 2u);
  for (const auto& c : clusters) {
    EXPECT_EQ(c.n(), 50);
    auto box = c.BoundingBox(0);
    ASSERT_EQ(box.size(), 2u);
    EXPECT_LT(box[0].second - box[0].first, 1.0);
  }
}

TEST(AcfTreeTest, ManhattanMetricPart) {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{2, MetricKind::kManhattan, "XY"}};
  AcfTreeOptions opts = SmallTreeOptions();
  opts.initial_threshold = 3.0;
  AcfTree tree(layout, 0, opts);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{10.0, 10.0}}).ok());
    ASSERT_TRUE(tree.InsertPoint({{90.0, 90.0}}).ok());
  }
  EXPECT_EQ(tree.ExtractClusters().size(), 2u);
}

TEST(AcfTreeTest, DiscretePartClustersByValue) {
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kDiscrete, "Color"}};
  AcfTree tree(layout, 0, SmallTreeOptions());  // threshold 0
  Rng rng(13);
  for (int i = 0; i < 90; ++i) {
    ASSERT_TRUE(tree.InsertPoint({{double(i % 3)}}).ok());
  }
  // Theorem 5.1: diameter-0 clusters are exactly the distinct values.
  auto clusters = tree.ExtractClusters();
  ASSERT_EQ(clusters.size(), 3u);
  for (const auto& c : clusters) {
    EXPECT_EQ(c.n(), 30);
    EXPECT_DOUBLE_EQ(c.Diameter(), 0.0);
  }
}

}  // namespace
}  // namespace dar
