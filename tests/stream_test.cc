// dar::stream: streaming-vs-batch rule equality (K micro-batches on one
// thread == one-shot Session::Mine), snapshot cadence/generation
// accounting, RuleIndex point queries against brute force, and the
// single-writer/many-reader publication contract (run under
// -DDAR_SANITIZE=thread via `ctest -L tsan`).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "datagen/planted.h"
#include "stream/rule_index.h"
#include "stream/rule_snapshot.h"
#include "stream/streaming_miner.h"
#include "stream_test_peer.h"
#include "test_util.h"

namespace dar {
namespace {

using testutil::TempPath;

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
  // The stream retains no tuples, so the §6.2 support rescan cannot run;
  // keep the batch reference comparable.
  config.count_rule_support = false;
  return config;
}

Result<Session> TestSession(int threads = 1) {
  return Session::Builder().WithConfig(TestConfig()).WithThreads(threads).Build();
}

// StreamConfig with the given re-mine cadence (0 = manual Remine only).
StreamConfig Cadence(int64_t remine_every_rows) {
  StreamConfig sc;
  sc.remine_every_rows = remine_every_rows;
  return sc;
}

StreamConfig NoIndexConfig() {
  StreamConfig sc;
  sc.remine_every_rows = 0;
  sc.build_rule_index = false;
  return sc;
}

// Slices rows [begin, end) of `rel` into a fresh Relation.
Relation Slice(const Relation& rel, size_t begin, size_t end) {
  Relation out(rel.schema());
  for (size_t r = begin; r < end; ++r) {
    EXPECT_TRUE(out.AppendRow(rel.Row(r)).ok());
  }
  return out;
}

void ExpectSameRules(const std::vector<DistanceRule>& a,
                     const std::vector<DistanceRule>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].antecedent, b[i].antecedent);
    EXPECT_EQ(a[i].consequent, b[i].consequent);
    EXPECT_EQ(a[i].degree, b[i].degree);  // bitwise
    EXPECT_EQ(a[i].cooccurrence_slack, b[i].cooccurrence_slack);
    EXPECT_EQ(a[i].support_count, b[i].support_count);
  }
}

// The acceptance pin: a stream fed K micro-batches (fixed seed, one
// thread) publishes exactly the rule set a one-shot Mine over the
// concatenated batches derives.
TEST(StreamTest, MicroBatchStreamEqualsOneShotMine) {
  PlantedDataset data = TestData();
  auto batch_session = TestSession();
  ASSERT_TRUE(batch_session.ok());
  auto report = batch_session->Mine(data.relation, data.partition);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GT(report->rules().size(), 0u)
      << "workload must produce rules for the comparison to mean anything";

  auto stream_session = TestSession();
  ASSERT_TRUE(stream_session.ok());
  auto stream = stream_session->OpenStream(
      data.relation.schema(), data.partition,
      Cadence(0));
  ASSERT_TRUE(stream.ok()) << stream.status();

  // Deliberately ragged micro-batches: equality must not depend on where
  // the batch boundaries fall.
  const size_t sizes[] = {1, 7, 500, 992, 1000, 100, 400};
  size_t begin = 0;
  for (size_t size : sizes) {
    size_t end = std::min(data.relation.num_rows(), begin + size);
    ASSERT_TRUE((*stream)->Ingest(Slice(data.relation, begin, end)).ok());
    begin = end;
  }
  ASSERT_EQ(begin, data.relation.num_rows());
  EXPECT_EQ((*stream)->rows_ingested(),
            static_cast<int64_t>(data.relation.num_rows()));

  auto snapshot = (*stream)->Remine();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_TRUE((*snapshot)->CheckConsistency().ok());
  EXPECT_EQ((*snapshot)->clusters().size(), report->phase1().clusters.size());
  EXPECT_EQ((*snapshot)->phase1().frequency_threshold,
            report->phase1().frequency_threshold);
  EXPECT_EQ((*snapshot)->phase1().effective_d0, report->phase1().effective_d0);
  EXPECT_EQ((*snapshot)->phase2().cliques, report->phase2().cliques);
  ExpectSameRules((*snapshot)->rules(), report->rules());
}

// Snapshot() must not perturb the live trees: re-mining mid-stream and
// then finishing produces the same final result as never re-mining.
TEST(StreamTest, MidStreamReminesDoNotPerturbFinalSnapshot) {
  PlantedDataset data = TestData();
  auto reference_session = TestSession();
  ASSERT_TRUE(reference_session.ok());
  auto reference = reference_session->Mine(data.relation, data.partition);
  ASSERT_TRUE(reference.ok());

  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  // Cadence 750: publishes fire *during* ingest this time.
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    Cadence(750));
  ASSERT_TRUE(stream.ok());
  const size_t kBatch = 250;
  for (size_t begin = 0; begin < data.relation.num_rows(); begin += kBatch) {
    size_t end = std::min(data.relation.num_rows(), begin + kBatch);
    ASSERT_TRUE((*stream)->Ingest(Slice(data.relation, begin, end)).ok());
  }
  EXPECT_GE((*stream)->generation(), 3u);  // 3000 rows / 750 cadence
  auto final_snapshot = (*stream)->Remine();
  ASSERT_TRUE(final_snapshot.ok());
  ExpectSameRules((*final_snapshot)->rules(), reference->rules());
}

TEST(StreamTest, CadenceAndGenerationAccounting) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    Cadence(500));
  ASSERT_TRUE(stream.ok());

  EXPECT_EQ((*stream)->generation(), 0u);
  EXPECT_EQ(StreamTestPeer::Snapshot(**stream), nullptr);
  EXPECT_TRUE(StreamTestPeer::Query(**stream, data.relation.Row(0))
                  .status()
                  .IsNotFound());

  ASSERT_TRUE((*stream)->Ingest(Slice(data.relation, 0, 499)).ok());
  EXPECT_EQ((*stream)->generation(), 0u) << "cadence not crossed yet";
  EXPECT_EQ((*stream)->rows_since_snapshot(), 499);

  ASSERT_TRUE((*stream)->Ingest(Slice(data.relation, 499, 500)).ok());
  EXPECT_EQ((*stream)->generation(), 1u) << "row 500 crosses the cadence";
  EXPECT_EQ((*stream)->rows_since_snapshot(), 0);
  auto first = StreamTestPeer::Snapshot(**stream);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->generation(), 1u);
  EXPECT_EQ(first->rows_ingested(), 500);
  EXPECT_TRUE(first->CheckConsistency().ok());

  // One big batch crossing the cadence twice still publishes once, at the
  // batch boundary.
  ASSERT_TRUE((*stream)->Ingest(Slice(data.relation, 500, 1600)).ok());
  EXPECT_EQ((*stream)->generation(), 2u);
  auto second = StreamTestPeer::Snapshot(**stream);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->rows_ingested(), 1600);

  // The first snapshot is immutable and still valid after being replaced.
  EXPECT_EQ(first->generation(), 1u);
  EXPECT_EQ(first->rows_ingested(), 500);
  EXPECT_TRUE(first->CheckConsistency().ok());

  // Stream telemetry accumulates in the session registry.
  auto telemetry = session->metrics().TakeSnapshot();
  EXPECT_EQ(telemetry.CounterOr("stream.ingest_rows"), 1600);
  EXPECT_EQ(telemetry.CounterOr("stream.remines"), 2);
  EXPECT_EQ(telemetry.GaugeOr("stream.generation"), 2.0);
}

// Mine resets the session registry the stream records into. The reset
// zeroes metrics in place, so the stream's handles stay valid: it keeps
// ingesting and re-mining, its counters restart from the reset, and its
// rules still equal a one-shot Mine over everything it absorbed.
TEST(StreamTest, MineOnSameSessionKeepsStreamUsable) {
  PlantedDataset data = TestData();
  const size_t half = data.relation.num_rows() / 2;
  for (int threads : {1, 4}) {
    auto session = TestSession(threads);
    ASSERT_TRUE(session.ok());
    auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                      Cadence(0));
    ASSERT_TRUE(stream.ok()) << stream.status();
    ASSERT_TRUE((*stream)->Ingest(Slice(data.relation, 0, half)).ok());
    ASSERT_TRUE((*stream)->Remine().ok());

    auto report = session->Mine(data.relation, data.partition);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->telemetry.CounterOr("stream.ingest_rows", -1), -1)
        << "the run's snapshot holds only the run's metrics";

    const size_t rows = data.relation.num_rows();
    ASSERT_TRUE((*stream)->Ingest(Slice(data.relation, half, rows)).ok());
    auto snapshot = (*stream)->Remine();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    ExpectSameRules((*snapshot)->rules(), report->rules());

    auto telemetry = session->metrics().TakeSnapshot();
    EXPECT_EQ(telemetry.CounterOr("stream.ingest_rows"),
              static_cast<int64_t>(rows - half))
        << "threads=" << threads;
    EXPECT_EQ(telemetry.CounterOr("stream.remines"), 1);
    EXPECT_EQ(telemetry.GaugeOr("stream.generation"), 2.0);
  }
}

TEST(StreamTest, ManualRemineOnlyWhenCadenceDisabled) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    Cadence(0));
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  EXPECT_EQ(StreamTestPeer::Snapshot(**stream), nullptr);
  auto snapshot = (*stream)->Remine();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*stream)->generation(), 1u);
}

TEST(StreamTest, RemineWithNoRowsFails) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream =
      session->OpenStream(data.relation.schema(), data.partition);
  ASSERT_TRUE(stream.ok());
  EXPECT_TRUE((*stream)->Remine().status().IsInvalidArgument());
  EXPECT_EQ(StreamTestPeer::Snapshot(**stream), nullptr)
      << "nothing may be published";
}

TEST(StreamTest, RejectsNegativeCadence) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    Cadence(-1));
  EXPECT_TRUE(stream.status().IsInvalidArgument());
}

// Reference implementation for the index: scan every cluster / rule.
std::vector<size_t> BruteForceClusters(const ClusterSet& clusters,
                                       const AttributePartition& partition,
                                       const std::vector<double>& row) {
  std::vector<size_t> out;
  for (size_t id = 0; id < clusters.size(); ++id) {
    const FoundCluster& c = clusters.cluster(id);
    const auto box = c.acf.BoundingBox(c.part);
    const auto& cols = partition.part(c.part).columns;
    bool contains = true;
    for (size_t d = 0; d < box.size(); ++d) {
      const double v = row[cols[d]];
      if (v < box[d].first || v > box[d].second) {
        contains = false;
        break;
      }
    }
    if (contains) out.push_back(id);
  }
  return out;
}

std::vector<size_t> BruteForceRules(const std::vector<DistanceRule>& rules,
                                    const std::vector<size_t>& containing) {
  std::vector<size_t> out;
  for (size_t k = 0; k < rules.size(); ++k) {
    bool all = true;
    for (const auto* side : {&rules[k].antecedent, &rules[k].consequent}) {
      for (size_t id : *side) {
        if (!std::binary_search(containing.begin(), containing.end(), id)) {
          all = false;
          break;
        }
      }
      if (!all) break;
    }
    if (all) out.push_back(k);
  }
  return out;
}

TEST(StreamTest, RuleIndexMatchesBruteForce) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream =
      session->OpenStream(data.relation.schema(), data.partition,
                          Cadence(0));
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  auto snapshot = (*stream)->Remine();
  ASSERT_TRUE(snapshot.ok());
  const RuleIndex* index = (*snapshot)->index();
  ASSERT_NE(index, nullptr);
  ASSERT_GT((*snapshot)->rules().size(), 0u);

  size_t tuples_with_rules = 0;
  for (size_t r = 0; r < data.relation.num_rows(); r += 17) {
    const std::vector<double> row = data.relation.Row(r);
    auto hits = StreamTestPeer::Query(**stream, row);
    ASSERT_TRUE(hits.ok()) << hits.status();
    EXPECT_EQ(hits->clusters, BruteForceClusters((*snapshot)->clusters(),
                                                 data.partition, row));
    EXPECT_EQ(hits->rules,
              BruteForceRules((*snapshot)->rules(), hits->clusters));
    tuples_with_rules += hits->rules.empty() ? 0 : 1;
  }
  EXPECT_GT(tuples_with_rules, 0u)
      << "planted data must make some rules fire or the check is vacuous";

  // A tuple far outside every planted range matches nothing.
  const std::vector<double> far(data.relation.num_columns(), 1e13);
  auto miss = StreamTestPeer::Query(**stream, far);
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->clusters.empty());
  EXPECT_TRUE(miss->rules.empty());

  // A too-short tuple is a clear error, not UB.
  const std::vector<double> narrow(1, 0.0);
  EXPECT_TRUE(
      StreamTestPeer::Query(**stream, narrow).status().IsInvalidArgument());
}

TEST(StreamTest, IndexDisabledByConfig) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(
      data.relation.schema(), data.partition,
      NoIndexConfig());
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  auto snapshot = (*stream)->Remine();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->index(), nullptr);
  EXPECT_TRUE(StreamTestPeer::Query(**stream, data.relation.Row(0))
                  .status()
                  .IsInvalidArgument());
}

// The tsan-labeled publication test: one ingest thread re-mining on a
// tight cadence while reader threads continuously load, self-check and
// query snapshots. Readers must only ever observe complete snapshots with
// monotonically non-decreasing generations.
TEST(StreamTest, ConcurrentReadersSeeConsistentSnapshots) {
  PlantedDataset data = TestData();
  auto session = TestSession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    Cadence(200));
  ASSERT_TRUE(stream.ok());
  StreamingMiner& miner = **stream;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  const std::vector<double> probe = data.relation.Row(0);

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      uint64_t last_generation = 0;
      RuleIndex::QueryScratch scratch;  // one per reader thread
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const RuleSnapshot> snapshot =
            StreamTestPeer::Snapshot(miner);
        if (snapshot == nullptr) continue;
        if (!snapshot->CheckConsistency().ok() ||
            snapshot->generation() < last_generation) {
          failures.fetch_add(1);
          return;
        }
        last_generation = snapshot->generation();
        auto hits = snapshot->index()->Query(probe, scratch);
        if (hits.ok()) {
          // Rule hits must reference rules that exist in *this* snapshot.
          for (size_t k : hits->rules) {
            if (k >= snapshot->rules().size()) {
              failures.fetch_add(1);
              return;
            }
          }
        }
      }
    });
  }

  const size_t kBatch = 100;
  for (size_t begin = 0; begin < data.relation.num_rows(); begin += kBatch) {
    size_t end = std::min(data.relation.num_rows(), begin + kBatch);
    ASSERT_TRUE(miner.Ingest(Slice(data.relation, begin, end)).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(miner.generation(), 10u);  // 3000 rows / 200 cadence
}

// Crash recovery: a stream with a checkpoint cadence is killed mid-run,
// restored from its last checkpoint in a fresh session (different thread
// count), and fed the remaining rows. The resumed stream must publish rules
// bit-identical to an uninterrupted stream over the same data — the
// checkpoint is the complete mining state, not an approximation.
TEST(StreamTest, KillRestoreContinueEqualsUninterruptedStream) {
  PlantedDataset data = TestData();
  const size_t total = data.relation.num_rows();  // 3000
  const std::string ckpt = TempPath("stream_kill.ckpt");

  StreamConfig cadence;
  cadence.remine_every_rows = 500;

  // Reference: one uninterrupted stream over all rows.
  auto ref_session = TestSession();
  ASSERT_TRUE(ref_session.ok());
  auto ref_stream = ref_session->OpenStream(data.relation.schema(),
                                            data.partition, cadence);
  ASSERT_TRUE(ref_stream.ok());
  for (size_t begin = 0; begin < total; begin += 250) {
    ASSERT_TRUE(
        (*ref_stream)->Ingest(Slice(data.relation, begin, begin + 250)).ok());
  }
  auto reference = StreamTestPeer::Snapshot(**ref_stream);
  ASSERT_NE(reference, nullptr);
  ASSERT_GT(reference->rules().size(), 0u);

  // Interrupted run: same cadence, plus a checkpoint every 500 rows.
  StreamConfig with_ckpt = cadence;
  with_ckpt.checkpoint_every_rows = 500;
  with_ckpt.checkpoint_path = ckpt;
  {
    auto session = TestSession();
    ASSERT_TRUE(session.ok());
    auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                      with_ckpt);
    ASSERT_TRUE(stream.ok()) << stream.status();
    for (size_t begin = 0; begin < 1250; begin += 250) {
      ASSERT_TRUE(
          (*stream)->Ingest(Slice(data.relation, begin, begin + 250)).ok());
    }
    // Stream destroyed here with 1250 rows ingested — the "crash". The
    // last cadence checkpoint was written at 1000 rows.
  }

  // Restore in a new session at a different thread count and catch up.
  auto resumed_session = TestSession(/*threads=*/4);
  ASSERT_TRUE(resumed_session.ok());
  auto restored = resumed_session->RestoreCheckpoint(ckpt);
  ASSERT_TRUE(restored.ok()) << restored.status();
  StreamingMiner& resumed = *restored->stream;
  EXPECT_EQ(resumed.rows_ingested(), 1000);
  EXPECT_EQ(resumed.generation(), 2u);  // re-mines fired at 500 and 1000
  auto republished = StreamTestPeer::Snapshot(resumed);
  ASSERT_NE(republished, nullptr);
  EXPECT_EQ(republished->rows_ingested(), 1000);
  EXPECT_TRUE(restored->schema == data.relation.schema());

  // Rows [1000, 1250) were ingested after the checkpoint and lost in the
  // crash; the caller re-feeds from the checkpoint's row count.
  for (size_t begin = 1000; begin < total; begin += 250) {
    ASSERT_TRUE(
        resumed.Ingest(Slice(data.relation, begin, begin + 250)).ok());
  }
  EXPECT_EQ(resumed.rows_ingested(), static_cast<int64_t>(total));

  auto final_snapshot = StreamTestPeer::Snapshot(resumed);
  ASSERT_NE(final_snapshot, nullptr);
  EXPECT_EQ(final_snapshot->rows_ingested(), reference->rows_ingested());
  EXPECT_EQ(final_snapshot->generation(), reference->generation());
  EXPECT_EQ(final_snapshot->phase1().effective_d0,
            reference->phase1().effective_d0);
  EXPECT_EQ(final_snapshot->phase2().cliques, reference->phase2().cliques);
  ExpectSameRules(final_snapshot->rules(), reference->rules());
  std::remove(ckpt.c_str());
}

// --- dar::quality integration: support post-scan on the streaming path,
// scored/pruned/diffed snapshots, and retained-row checkpoints. ---

DarConfig QualityConfig() {
  DarConfig config = TestConfig();
  config.count_rule_support = true;  // the stream retains rows and rescans
  return config;
}

Result<Session> QualitySession(int threads = 1) {
  return Session::Builder()
      .WithConfig(QualityConfig())
      .WithThreads(threads)
      .Build();
}

StreamConfig QualityStreamConfig() {
  StreamConfig sc;
  sc.remine_every_rows = 0;
  sc.score_measures = {"support", "confidence", "lift", "conviction",
                       "chi2"};
  sc.prune_redundant = true;
  sc.diff_snapshots = true;
  return sc;
}

// The satellite fix: DistanceRule::support_count must be filled on the
// streaming path when the config asks for the §6.2 post-scan, and must
// match the batch Mine over the same accumulated rows exactly.
TEST(StreamQualityTest, StreamingSupportCountsMatchBatchMine) {
  PlantedDataset data = TestData();
  auto batch_session = QualitySession();
  ASSERT_TRUE(batch_session.ok());
  auto report = batch_session->Mine(data.relation, data.partition);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_GT(report->rules().size(), 0u);
  for (const DistanceRule& rule : report->rules()) {
    ASSERT_GE(rule.support_count, 0) << "batch post-scan must have run";
  }

  auto stream_session = QualitySession();
  ASSERT_TRUE(stream_session.ok());
  auto stream = stream_session->OpenStream(data.relation.schema(),
                                           data.partition, Cadence(0));
  ASSERT_TRUE(stream.ok()) << stream.status();
  for (size_t begin = 0; begin < data.relation.num_rows(); begin += 500) {
    ASSERT_TRUE(
        (*stream)->Ingest(Slice(data.relation, begin, begin + 500)).ok());
  }
  auto snapshot = (*stream)->Remine();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ExpectSameRules((*snapshot)->rules(), report->rules());
}

TEST(StreamQualityTest, ScoreMeasuresRequireSupportCounting) {
  PlantedDataset data = TestData();
  auto session = TestSession();  // count_rule_support = false
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    QualityStreamConfig());
  ASSERT_FALSE(stream.ok());
  EXPECT_TRUE(stream.status().IsInvalidArgument()) << stream.status();
}

TEST(StreamQualityTest, ScoredSnapshotsAreThreadCountInvariant) {
  PlantedDataset data = TestData();
  std::shared_ptr<const RuleSnapshot> snapshots[2];
  const int thread_counts[] = {1, 8};
  for (size_t i = 0; i < 2; ++i) {
    auto session = QualitySession(thread_counts[i]);
    ASSERT_TRUE(session.ok());
    auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                      QualityStreamConfig());
    ASSERT_TRUE(stream.ok()) << stream.status();
    ASSERT_TRUE(
        (*stream)->Ingest(Slice(data.relation, 0, 1500)).ok());
    ASSERT_TRUE((*stream)->Remine().ok());
    ASSERT_TRUE((*stream)
                    ->Ingest(Slice(data.relation, 1500,
                                   data.relation.num_rows()))
                    .ok());
    auto snapshot = (*stream)->Remine();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    snapshots[i] = *snapshot;
  }
  const quality::ScoredRuleSet* a = snapshots[0]->scored();
  const quality::ScoredRuleSet* b = snapshots[1]->scored();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->stats.size(), b->stats.size());
  ASSERT_EQ(a->stats.size(), snapshots[0]->rules().size());
  EXPECT_EQ(a->measure_names, b->measure_names);
  for (size_t k = 0; k < a->stats.size(); ++k) {
    EXPECT_EQ(a->stats[k].both, b->stats[k].both);
    EXPECT_EQ(a->stats[k].antecedent, b->stats[k].antecedent);
    EXPECT_EQ(a->stats[k].consequent, b->stats[k].consequent);
    EXPECT_EQ(a->stats[k].total, b->stats[k].total);
  }
  for (size_t m = 0; m < a->scores.size(); ++m) {
    for (size_t k = 0; k < a->scores[m].size(); ++k) {
      EXPECT_EQ(a->scores[m][k], b->scores[m][k]);  // bitwise
    }
  }
  EXPECT_EQ(a->representative, b->representative);
  EXPECT_EQ(a->num_pruned, b->num_pruned);

  const quality::SnapshotDiffResult* da = snapshots[0]->diff();
  const quality::SnapshotDiffResult* db = snapshots[1]->diff();
  ASSERT_NE(da, nullptr);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(da->born, db->born);
  EXPECT_EQ(da->died, db->died);
  EXPECT_EQ(da->drifted, db->drifted);
  EXPECT_EQ(da->unchanged, db->unchanged);
  EXPECT_EQ(da->old_generation, 1u);
  EXPECT_EQ(da->new_generation, 2u);
}

TEST(StreamQualityTest, UserRegisteredMeasureScoresSnapshots) {
  class RowCountMeasure : public quality::InterestingnessMeasure {
   public:
    [[nodiscard]] std::string_view name() const override {
      return "row_count";
    }
    [[nodiscard]] double Score(const RuleStats& stats) const override {
      return static_cast<double>(stats.total);
    }
  };
  PlantedDataset data = TestData();
  auto session = QualitySession();
  ASSERT_TRUE(session.ok());
  StreamConfig sc;
  sc.remine_every_rows = 0;
  sc.score_measures = {"lift", "row_count"};
  auto stream =
      session->OpenStream(data.relation.schema(), data.partition, sc);
  ASSERT_TRUE(stream.ok()) << stream.status();
  ASSERT_TRUE(
      (*stream)->RegisterMeasure(std::make_unique<RowCountMeasure>()).ok());
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  auto snapshot = (*stream)->Remine();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  const quality::ScoredRuleSet* scored = (*snapshot)->scored();
  ASSERT_NE(scored, nullptr);
  const int m = scored->FindMeasure("row_count");
  ASSERT_GE(m, 0);
  for (const double score : scored->scores[static_cast<size_t>(m)]) {
    EXPECT_EQ(score, static_cast<double>(data.relation.num_rows()));
  }
}

// Drift end to end: a planted cluster-mean shift after row N must be
// flagged by the second generation's diff, and the stationary control
// (identical pipeline, shift 0) must stay quiet.
TEST(StreamQualityTest, InjectedDriftFlaggedAndStationaryControlQuiet) {
  const PlantedDataSpec spec = WbcdLikeSpec(4, 3, 0.0, 61);
  const size_t n = 4000;
  for (const double shift : {1000.0 / 3.0 * 0.25, 0.0}) {
    auto data = GenerateDrifting(spec, n, n / 2, shift, 62);
    ASSERT_TRUE(data.ok()) << data.status();
    auto session = QualitySession();
    ASSERT_TRUE(session.ok());
    StreamConfig sc = QualityStreamConfig();
    sc.drift_interval_tolerance = 0.25;
    sc.drift_degree_tolerance = 0.5;
    auto stream =
        session->OpenStream(data->relation.schema(), data->partition, sc);
    ASSERT_TRUE(stream.ok()) << stream.status();
    ASSERT_TRUE((*stream)->Ingest(Slice(data->relation, 0, n / 2)).ok());
    ASSERT_TRUE((*stream)->Remine().ok());
    ASSERT_TRUE((*stream)->Ingest(Slice(data->relation, n / 2, n)).ok());
    auto snapshot = (*stream)->Remine();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    const quality::SnapshotDiffResult* diff = (*snapshot)->diff();
    ASSERT_NE(diff, nullptr);
    if (shift != 0.0) {
      EXPECT_GE(diff->born + diff->died + diff->drifted, 1u)
          << "injected mean shift must be flagged";
    } else {
      EXPECT_EQ(diff->born, 0u);
      EXPECT_EQ(diff->died, 0u);
      EXPECT_EQ(diff->drifted, 0u);
    }
  }
}

// Retained tuples travel with the checkpoint, so a restored stream's
// post-scan counts and scores equal the uninterrupted stream's.
TEST(StreamQualityTest, RetainedRowsCheckpointRoundTrip) {
  PlantedDataset data = TestData();
  const std::string ckpt = TempPath("stream_quality.ckpt");

  auto session = QualitySession();
  ASSERT_TRUE(session.ok());
  auto stream = session->OpenStream(data.relation.schema(), data.partition,
                                    QualityStreamConfig());
  ASSERT_TRUE(stream.ok()) << stream.status();
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  auto reference = (*stream)->Remine();
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE((*stream)->SaveCheckpoint(ckpt).ok());

  auto resumed_session = QualitySession(/*threads=*/4);
  ASSERT_TRUE(resumed_session.ok());
  auto restored = resumed_session->RestoreCheckpoint(ckpt);
  ASSERT_TRUE(restored.ok()) << restored.status();
  auto snapshot = restored->stream->Remine();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  ExpectSameRules((*snapshot)->rules(), (*reference)->rules());
  const quality::ScoredRuleSet* scored = (*snapshot)->scored();
  const quality::ScoredRuleSet* ref_scored = (*reference)->scored();
  ASSERT_NE(scored, nullptr);
  ASSERT_NE(ref_scored, nullptr);
  EXPECT_EQ(scored->scores, ref_scored->scores);
  EXPECT_EQ(scored->representative, ref_scored->representative);
  std::remove(ckpt.c_str());
}

// A checkpoint that retained no tuples cannot resume a support-counting
// stream: restoring it into a config that wants the post-scan must fail
// loudly instead of publishing support_count = -1 (or wrong scores).
TEST(StreamQualityTest, CheckpointWithoutRetainedRowsRefusesSupportConfig) {
  PlantedDataset data = TestData();
  const std::string ckpt = TempPath("stream_nosupport.ckpt");

  auto plain_session = TestSession();  // count_rule_support = false
  ASSERT_TRUE(plain_session.ok());
  auto stream = plain_session->OpenStream(data.relation.schema(),
                                          data.partition, Cadence(0));
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE((*stream)->Ingest(data.relation).ok());
  ASSERT_TRUE((*stream)->Remine().ok());
  ASSERT_TRUE((*stream)->SaveCheckpoint(ckpt).ok());

  auto counting_session = QualitySession();
  ASSERT_TRUE(counting_session.ok());
  auto restored = counting_session->RestoreCheckpoint(ckpt);
  ASSERT_FALSE(restored.ok());
  EXPECT_TRUE(restored.status().IsInvalidArgument()) << restored.status();
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace dar
