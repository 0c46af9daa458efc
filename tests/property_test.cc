// Parameterized property sweeps: the key invariants of the library checked
// across seeds and structural parameters (gtest TEST_P suites).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <ostream>

#include "apriori/apriori.h"
#include "birch/acf_tree.h"
#include "birch/metrics.h"
#include "common/random.h"
#include "core/session.h"
#include "datagen/planted.h"
#include "persist/codec.h"
#include "persist/wire.h"
#include "test_util.h"

namespace dar {
namespace {

using testutil::BruteD2Rms;
using testutil::BruteDiameterRms;
using testutil::Points;
using testutil::RandomPoints;

// ---------------------------------------------------------------------------
// CF algebra invariants across seeds and dimensions.

class CfPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(CfPropertyTest, SummaryMatchesBruteForce) {
  auto [seed, dim] = GetParam();
  Rng rng(seed);
  Points a = RandomPoints(rng, size_t(rng.UniformInt(2, 30)), dim);
  Points b = RandomPoints(rng, size_t(rng.UniformInt(2, 30)), dim);
  CfVector cfa(dim, MetricKind::kEuclidean), cfb(dim, MetricKind::kEuclidean);
  for (const auto& p : a) cfa.AddPoint(p);
  for (const auto& p : b) cfb.AddPoint(p);
  EXPECT_NEAR(cfa.Diameter(), BruteDiameterRms(a), 1e-8);
  EXPECT_NEAR(ClusterDistance(cfa, cfb, ClusterMetric::kD2AvgInter),
              BruteD2Rms(a, b), 1e-8);
  // Additivity.
  CfVector merged = cfa;
  merged.Merge(cfb);
  Points all = a;
  all.insert(all.end(), b.begin(), b.end());
  EXPECT_NEAR(merged.Diameter(), BruteDiameterRms(all), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CfPropertyTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u),
                       ::testing::Values(1u, 2u, 4u)));

// ---------------------------------------------------------------------------
// ACF-tree invariants across structural parameters and seeds.

struct TreeParam {
  int branching;
  int leaf_capacity;
  uint64_t seed;
};

// Prints as "b4_l2_seed1". gtest_discover_tests turns the printed
// parameter into the ctest name suffix; a name generator would not do, as
// CMake then keeps gtest's "# GetParam() = ..." comment in the name.
void PrintTo(const TreeParam& p, std::ostream* os) {
  *os << "b" << p.branching << "_l" << p.leaf_capacity << "_seed" << p.seed;
}

class AcfTreePropertyTest : public ::testing::TestWithParam<TreeParam> {};

TEST_P(AcfTreePropertyTest, MassAndMomentsConserved) {
  TreeParam param = GetParam();
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "X"},
                   {1, MetricKind::kEuclidean, "Y"}};
  AcfTreeOptions opts;
  opts.branching_factor = param.branching;
  opts.leaf_capacity = param.leaf_capacity;
  opts.memory_budget_bytes = 48u << 10;  // forces rebuilds
  AcfTree tree(layout, 0, opts);
  Rng rng(param.seed);
  double sum_x = 0, sum_y = 0;
  const int n = 2500;
  for (int i = 0; i < n; ++i) {
    double x = rng.Uniform(0, 1e4), y = rng.Gaussian(0, 3);
    sum_x += x;
    sum_y += y;
    ASSERT_TRUE(tree.InsertPoint({{x}, {y}}).ok());
  }
  ASSERT_TRUE(tree.FinishScan().ok());
  EXPECT_EQ(tree.TotalMass(), n);
  double ls_x = 0, ls_y = 0;
  for (const auto& c : tree.ExtractClusters()) {
    ls_x += c.image(0).ls()[0];
    ls_y += c.image(1).ls()[0];
  }
  for (const auto& c : tree.outliers()) {
    ls_x += c.image(0).ls()[0];
    ls_y += c.image(1).ls()[0];
  }
  EXPECT_NEAR(ls_x / sum_x, 1.0, 1e-9);
  EXPECT_NEAR(ls_y, sum_y, 1e-6 * n);
  // Every cluster respects the final threshold (up to the RMS form).
  for (const auto& c : tree.ExtractClusters()) {
    if (c.n() >= 2) {
      EXPECT_LE(c.Diameter(), tree.threshold() * (1 + 1e-9) + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AcfTreePropertyTest,
    ::testing::Values(TreeParam{4, 2, 1}, TreeParam{4, 8, 2},
                      TreeParam{16, 8, 3}, TreeParam{16, 2, 4},
                      TreeParam{32, 16, 5}, TreeParam{2, 1, 6}));

// ---------------------------------------------------------------------------
// Persistence round-trip across the same structural sweep: encode -> decode
// -> re-encode reproduces the exact bytes (hence the exact ACF sums, node
// structure and counters), for trees mid-scan with live outlier buffers as
// well as finished ones.

class TreeRoundTripPropertyTest : public ::testing::TestWithParam<TreeParam> {
};

TEST_P(TreeRoundTripPropertyTest, EncodeDecodeEncodeIsIdentity) {
  TreeParam param = GetParam();
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kEuclidean, "X"},
                   {1, MetricKind::kEuclidean, "Y"}};
  AcfTreeOptions opts;
  opts.branching_factor = param.branching;
  opts.leaf_capacity = param.leaf_capacity;
  opts.memory_budget_bytes = 48u << 10;  // forces rebuilds
  opts.outlier_entry_min_n = 3;          // exercises the outlier buffers
  AcfTree tree(layout, 0, opts);
  Rng rng(param.seed);
  for (int i = 0; i < 2500; ++i) {
    ASSERT_TRUE(
        tree.InsertPoint({{rng.Uniform(0, 1e4)}, {rng.Gaussian(0, 3)}}).ok());
  }
  // Deliberately no FinishScan: a checkpointed tree is mid-stream, with
  // paged-out outliers still buffered.

  persist::WireWriter w;
  persist::EncodeTree(tree, w);
  persist::WireReader r(w.bytes());
  auto decoded = persist::DecodeTree(r, layout, /*expect_part=*/0);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(r.ExpectEnd("tree blob").ok());
  EXPECT_TRUE((*decoded)->ValidateInvariants().ok());

  // Bit-identical re-encoding: nothing was lost or perturbed.
  persist::WireWriter w2;
  persist::EncodeTree(**decoded, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());

  // Derived views agree too (belt and braces on top of byte equality).
  const AcfTreeStats a = tree.Stats(), b = (*decoded)->Stats();
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.num_leaf_entries, b.num_leaf_entries);
  EXPECT_EQ(a.num_outliers, b.num_outliers);
  EXPECT_EQ(a.rebuild_count, b.rebuild_count);
  EXPECT_EQ(a.threshold, b.threshold);  // bitwise
  EXPECT_EQ(a.points_inserted, b.points_inserted);
  EXPECT_EQ(a.split_count, b.split_count);
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(tree.TotalMass(), (*decoded)->TotalMass());

  // ExtractClusters order — the source of cluster ids, hence rule
  // identities — survives exactly.
  const auto orig = tree.ExtractClusters();
  const auto back = (*decoded)->ExtractClusters();
  ASSERT_EQ(orig.size(), back.size());
  for (size_t i = 0; i < orig.size(); ++i) {
    ASSERT_EQ(orig[i].n(), back[i].n());
    for (size_t p = 0; p < layout->parts.size(); ++p) {
      EXPECT_EQ(orig[i].image(p).ls()[0], back[i].image(p).ls()[0]);  // bitwise
      EXPECT_EQ(orig[i].image(p).ss()[0], back[i].image(p).ss()[0]);
    }
  }

  // After finishing both trees the same way, they still agree bit-exactly.
  persist::WireReader r2(w.bytes());
  auto decoded2 = persist::DecodeTree(r2, layout, 0);
  ASSERT_TRUE(decoded2.ok());
  ASSERT_TRUE(tree.FinishScan().ok());
  ASSERT_TRUE((*decoded2)->FinishScan().ok());
  persist::WireWriter wf1, wf2;
  persist::EncodeTree(tree, wf1);
  persist::EncodeTree(**decoded2, wf2);
  EXPECT_EQ(wf1.bytes(), wf2.bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeRoundTripPropertyTest,
    ::testing::Values(TreeParam{4, 2, 11}, TreeParam{4, 8, 12},
                      TreeParam{16, 8, 13}, TreeParam{16, 2, 14},
                      TreeParam{32, 16, 15}, TreeParam{2, 1, 16}));

// ---------------------------------------------------------------------------
// Apriori equals brute force across seeds.

class AprioriPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AprioriPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  std::vector<Itemset> txns;
  size_t n = static_cast<size_t>(rng.UniformInt(10, 60));
  for (size_t i = 0; i < n; ++i) {
    Itemset t;
    for (Item it = 0; it < 7; ++it) {
      if (rng.Bernoulli(0.4)) t.push_back(it);
    }
    txns.push_back(t);
  }
  int64_t min_count = rng.UniformInt(2, 8);
  AprioriOptions opts;
  opts.min_support_count = min_count;
  auto mined = MineFrequentItemsets(txns, opts);
  ASSERT_TRUE(mined.ok());
  std::map<Itemset, int64_t> got;
  for (const auto& f : *mined) got[f.items] = f.count;
  // Brute force.
  std::map<Itemset, int64_t> expect;
  for (uint64_t mask = 1; mask < (1ull << 7); ++mask) {
    Itemset s;
    for (Item it = 0; it < 7; ++it) {
      if (mask & (1ull << it)) s.push_back(it);
    }
    int64_t count = 0;
    for (const auto& t : txns) {
      if (IsSubsetOf(s, t)) ++count;
    }
    if (count >= min_count) expect[s] = count;
  }
  EXPECT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AprioriPropertyTest,
                         ::testing::Range(uint64_t{100}, uint64_t{112}));

// ---------------------------------------------------------------------------
// End-to-end planted-structure recovery across workload shapes.

struct WorkloadParam {
  size_t attrs;
  size_t clusters;
  double outliers;
  uint64_t seed;
};

// Prints as "a3_c3_o5_seed302" (outliers in percent); see TreeParam.
void PrintTo(const WorkloadParam& w, std::ostream* os) {
  *os << "a" << w.attrs << "_c" << w.clusters << "_o"
      << std::lround(w.outliers * 100) << "_seed" << w.seed;
}

class RecoveryPropertyTest : public ::testing::TestWithParam<WorkloadParam> {
};

TEST_P(RecoveryPropertyTest, FindsAllPlantedClusters) {
  WorkloadParam w = GetParam();
  PlantedDataSpec spec = WbcdLikeSpec(w.attrs, w.clusters, w.outliers,
                                      w.seed);
  auto data = GeneratePlanted(spec, 1500 * w.clusters, w.seed + 1);
  ASSERT_TRUE(data.ok());
  DarConfig config;
  config.memory_budget_bytes = 32u << 20;
  config.frequency_fraction = 0.4 / static_cast<double>(w.clusters);
  config.initial_diameters.assign(w.attrs, 0.3 * 1000.0 / w.clusters);
  config.refine_clusters = true;
  auto session = Session::Builder().WithConfig(config).Build();
  ASSERT_TRUE(session.ok());
  auto phase1 = session->RunPhase1(data->relation, data->partition);
  ASSERT_TRUE(phase1.ok());
  for (size_t p = 0; p < w.attrs; ++p) {
    EXPECT_EQ(phase1->clusters.ClustersOnPart(p).size(), w.clusters)
        << "part " << p;
  }
  // Every planted center matched by some frequent cluster.
  for (size_t p = 0; p < w.attrs; ++p) {
    for (const auto& planted : spec.parts[p].clusters) {
      bool matched = false;
      for (size_t id : phase1->clusters.ClustersOnPart(p)) {
        if (std::fabs(phase1->clusters.cluster(id).acf.Centroid()[0] -
                      planted.center[0]) < 0.2 * 1000.0 / w.clusters) {
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << "part " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RecoveryPropertyTest,
    ::testing::Values(WorkloadParam{2, 2, 0.0, 301},
                      WorkloadParam{3, 3, 0.05, 302},
                      WorkloadParam{4, 5, 0.1, 303},
                      WorkloadParam{2, 8, 0.1, 304},
                      WorkloadParam{6, 3, 0.2, 305}));

// ---------------------------------------------------------------------------
// Theorem 5.2 equivalence across seeds (degree == 1 - confidence).

class Theorem52PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem52PropertyTest, DegreeIsOneMinusConfidence) {
  Rng rng(GetParam());
  size_t n = static_cast<size_t>(rng.UniformInt(10, 200));
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<double>(rng.UniformInt(0, 4));
    b[i] = static_cast<double>(rng.UniformInt(0, 4));
  }
  auto layout = std::make_shared<AcfLayout>();
  layout->parts = {{1, MetricKind::kDiscrete, "A"},
                   {1, MetricKind::kDiscrete, "B"}};
  std::map<double, Acf> on_a, on_b;
  for (size_t i = 0; i < n; ++i) {
    PartedRow row = {{a[i]}, {b[i]}};
    on_a.try_emplace(a[i], Acf(layout, 0)).first->second.AddRow(row);
    on_b.try_emplace(b[i], Acf(layout, 1)).first->second.AddRow(row);
  }
  for (const auto& [va, ca] : on_a) {
    for (const auto& [vb, cb] : on_b) {
      size_t count_a = 0, count_ab = 0;
      for (size_t i = 0; i < n; ++i) {
        if (a[i] == va) {
          ++count_a;
          if (b[i] == vb) ++count_ab;
        }
      }
      double degree = ClusterDistance(cb.image(1), ca.image(1),
                                      ClusterMetric::kD2AvgInter);
      EXPECT_NEAR(degree, 1.0 - double(count_ab) / count_a, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem52PropertyTest,
                         ::testing::Range(uint64_t{500}, uint64_t{510}));

}  // namespace
}  // namespace dar
