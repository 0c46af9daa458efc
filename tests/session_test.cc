// dar::Session: the determinism guarantee (bit-identical output for every
// executor and thread count, including the telemetry snapshot's
// deterministic JSON view), snapshot counter consistency, and
// streaming-vs-batch Phase I equivalence.

#include "core/session.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "core/phase1_builder.h"
#include "datagen/planted.h"
#include "telemetry/json.h"

namespace dar {
namespace {

// A workload small enough for CI but rich enough to exercise every stage:
// multiple parts, planted cross-part patterns, outliers, rebuilds-free
// budget, rule support counting on.
PlantedDataset TestData() {
  PlantedDataSpec spec = WbcdLikeSpec(/*num_attrs=*/4, /*clusters_per_attr=*/3,
                                      /*outlier_fraction=*/0.05, /*seed=*/31);
  auto data = GeneratePlanted(spec, 3000, 32);
  EXPECT_TRUE(data.ok()) << data.status();
  return *std::move(data);
}

DarConfig TestConfig() {
  DarConfig config;
  config.frequency_fraction = 0.05;
  config.initial_diameters.assign(4, 80.0);
  config.degree_threshold = 150.0;
  config.count_rule_support = true;
  return config;
}

// Bitwise CF equality: n, linear sums, squares, min/max per dimension.
void ExpectSameCf(const CfVector& a, const CfVector& b) {
  ASSERT_EQ(a.dim(), b.dim());
  EXPECT_EQ(a.n(), b.n());
  for (size_t d = 0; d < a.dim(); ++d) {
    EXPECT_EQ(a.ls()[d], b.ls()[d]);
    EXPECT_EQ(a.ss()[d], b.ss()[d]);
    EXPECT_EQ(a.min()[d], b.min()[d]);
    EXPECT_EQ(a.max()[d], b.max()[d]);
  }
}

void ExpectSameAcf(const Acf& a, const Acf& b) {
  ASSERT_EQ(a.own_part(), b.own_part());
  ASSERT_EQ(a.layout().num_parts(), b.layout().num_parts());
  for (size_t p = 0; p < a.layout().num_parts(); ++p) {
    ExpectSameCf(a.image(p), b.image(p));
  }
}

void ExpectSamePhase1(const Phase1Result& a, const Phase1Result& b) {
  EXPECT_EQ(a.frequency_threshold, b.frequency_threshold);
  EXPECT_EQ(a.effective_d0, b.effective_d0);
  EXPECT_EQ(a.raw_cluster_counts, b.raw_cluster_counts);
  ASSERT_EQ(a.tree_stats.size(), b.tree_stats.size());
  for (size_t p = 0; p < a.tree_stats.size(); ++p) {
    EXPECT_EQ(a.tree_stats[p].num_leaf_entries, b.tree_stats[p].num_leaf_entries);
    EXPECT_EQ(a.tree_stats[p].rebuild_count, b.tree_stats[p].rebuild_count);
    EXPECT_EQ(a.tree_stats[p].threshold, b.tree_stats[p].threshold);
    EXPECT_EQ(a.tree_stats[p].points_inserted, b.tree_stats[p].points_inserted);
  }
  ASSERT_EQ(a.outliers.size(), b.outliers.size());
  for (size_t i = 0; i < a.outliers.size(); ++i) {
    ExpectSameAcf(a.outliers[i], b.outliers[i]);
  }
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    const FoundCluster& ca = a.clusters.cluster(i);
    const FoundCluster& cb = b.clusters.cluster(i);
    EXPECT_EQ(ca.id, cb.id);
    EXPECT_EQ(ca.part, cb.part);
    ExpectSameAcf(ca.acf, cb.acf);
  }
}

void ExpectSamePhase2(const Phase2Result& a, const Phase2Result& b) {
  EXPECT_EQ(a.graph_edges, b.graph_edges);
  EXPECT_EQ(a.cliques, b.cliques);  // exact, including order
  EXPECT_EQ(a.num_nontrivial_cliques, b.num_nontrivial_cliques);
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (size_t i = 0; i < a.rules.size(); ++i) {
    EXPECT_EQ(a.rules[i].antecedent, b.rules[i].antecedent);
    EXPECT_EQ(a.rules[i].consequent, b.rules[i].consequent);
    EXPECT_EQ(a.rules[i].degree, b.rules[i].degree);  // bitwise
    EXPECT_EQ(a.rules[i].cooccurrence_slack, b.rules[i].cooccurrence_slack);
    EXPECT_EQ(a.rules[i].support_count, b.rules[i].support_count);
  }
}

// Serializes the deterministic (timing-free) view of a run's snapshot.
std::string DeterministicJson(const MiningReport& report) {
  telemetry::JsonExporterOptions options;
  options.include_timings = false;
  return telemetry::JsonExporter(options).Export(report.telemetry);
}

Result<MiningReport> MineWithThreads(const PlantedDataset& data,
                                     int threads) {
  auto session =
      Session::Builder().WithConfig(TestConfig()).WithThreads(threads).Build();
  if (!session.ok()) return session.status();
  return session->Mine(data.relation, data.partition);
}

class SessionDeterminismTest : public ::testing::TestWithParam<int> {};

// The headline guarantee: ThreadPoolExecutor(k) output is bit-identical to
// SerialExecutor output — clusters, stats, outliers, graph counters,
// cliques (same order), rules (same order, same degrees, same supports).
TEST_P(SessionDeterminismTest, MatchesSerialBitForBit) {
  PlantedDataset data = TestData();
  auto serial = MineWithThreads(data, 1);
  ASSERT_TRUE(serial.ok()) << serial.status();
  ASSERT_GT(serial->rules().size(), 0u)
      << "workload must produce rules for the comparison to mean anything";

  auto parallel = MineWithThreads(data, GetParam());
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ExpectSamePhase1(serial->phase1(), parallel->phase1());
  ExpectSamePhase2(serial->phase2(), parallel->phase2());
  // The snapshot's deterministic view serializes to the same bytes too.
  EXPECT_EQ(DeterministicJson(*serial), DeterministicJson(*parallel));
}

INSTANTIATE_TEST_SUITE_P(Threads, SessionDeterminismTest,
                         ::testing::Values(1, 2, 8));

TEST(SessionTest, RepeatedRunsOnOnePoolAreIdentical) {
  PlantedDataset data = TestData();
  auto session = Session::Builder()
                     .WithConfig(TestConfig())
                     .WithThreads(4)
                     .Build();
  ASSERT_TRUE(session.ok());
  auto a = session->Mine(data.relation, data.partition);
  auto b = session->Mine(data.relation, data.partition);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExpectSamePhase1(a->phase1(), b->phase1());
  ExpectSamePhase2(a->phase2(), b->phase2());
  // The registry is reset per Mine call, so repeated runs also snapshot
  // identically (no cross-run accumulation).
  EXPECT_EQ(DeterministicJson(*a), DeterministicJson(*b));
}

// The snapshot is the run's one progress channel: its Phase-I rebuild and
// Phase-II edge/clique series equal the result structs at every thread
// count. A tight memory budget makes the trees rebuild, so the rebuild
// series is checked against a nonzero total.
TEST(SessionTest, SnapshotCountersMatchResultCounters) {
  PlantedDataset data = TestData();
  DarConfig config = TestConfig();
  config.memory_budget_bytes = 64 << 10;
  for (int threads : {1, 8}) {
    auto session =
        Session::Builder().WithConfig(config).WithThreads(threads).Build();
    ASSERT_TRUE(session.ok());
    auto result = session->Mine(data.relation, data.partition);
    ASSERT_TRUE(result.ok()) << result.status();
    int64_t rebuilds = 0;
    for (const auto& stats : result->phase1().tree_stats) {
      rebuilds += stats.rebuild_count;
    }
    EXPECT_GT(rebuilds, 0) << "threads=" << threads;
    EXPECT_EQ(result->telemetry.CounterOr("phase1.rebuilds"), rebuilds)
        << "threads=" << threads;
    EXPECT_EQ(result->telemetry.CounterOr("phase2.graph_edges"),
              static_cast<int64_t>(result->phase2().graph_edges));
    EXPECT_EQ(result->telemetry.CounterOr("phase2.cliques"),
              static_cast<int64_t>(result->phase2().cliques.size()));
    EXPECT_GT(result->graph_comparisons_made(), 0);
  }
}

// The satellite determinism pin: identical runs at 1 and 8 threads export
// byte-identical deterministic JSON (and a second 8-thread run matches a
// re-serialization exactly, i.e. serialization itself is stable).
TEST(SessionTest, DeterministicJsonIdenticalAcrossThreadCounts) {
  PlantedDataset data = TestData();
  auto one = MineWithThreads(data, 1);
  auto eight = MineWithThreads(data, 8);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(eight.ok());
  const std::string json_one = DeterministicJson(*one);
  EXPECT_EQ(json_one, DeterministicJson(*eight));
  EXPECT_EQ(json_one, DeterministicJson(*one));  // stable re-serialization
  EXPECT_NE(json_one.find("\"phase1.rows\""), std::string::npos);
  EXPECT_NE(json_one.find("\"phase2.graph_edges\""), std::string::npos);
  // Timing metrics exist in the full export but not the deterministic view.
  const std::string full = telemetry::JsonExporter().Export(one->telemetry);
  EXPECT_NE(full.find("\"phase1.seconds\""), std::string::npos);
  EXPECT_EQ(json_one.find("\"phase1.seconds\""), std::string::npos);
}

TEST(SessionTest, StreamingAddRowMatchesBatchAddRelation) {
  // The §3 streaming mode and the part-parallel batch mode must build the
  // exact same trees (per-tree insert order and outlier-paging cadence are
  // identical by construction).
  PlantedDataset data = TestData();
  DarConfig config = TestConfig();
  const Schema& schema = data.relation.schema();

  auto streaming = Phase1Builder::Make(config, schema, data.partition);
  ASSERT_TRUE(streaming.ok());
  for (size_t r = 0; r < data.relation.num_rows(); ++r) {
    std::vector<double> row = data.relation.Row(r);
    ASSERT_TRUE(streaming->AddRow(row).ok());
  }
  auto streamed = std::move(*streaming).Finish();
  ASSERT_TRUE(streamed.ok());

  ThreadPoolExecutor pool(8);
  auto batch = Phase1Builder::Make(config, schema, data.partition, &pool);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->AddRelation(data.relation).ok());
  EXPECT_EQ(batch->rows_added(),
            static_cast<int64_t>(data.relation.num_rows()));
  auto batched = std::move(*batch).Finish();
  ASSERT_TRUE(batched.ok());

  ExpectSamePhase1(*streamed, *batched);
}

TEST(SessionTest, MineRejectsEmptyRelation) {
  PlantedDataset data = TestData();
  Relation empty(data.relation.schema());
  auto session = Session::Builder().WithConfig(TestConfig()).Build();
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(
      session->Mine(empty, data.partition).status().IsInvalidArgument());
}

}  // namespace
}  // namespace dar
