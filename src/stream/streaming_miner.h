#ifndef DAR_STREAM_STREAMING_MINER_H_
#define DAR_STREAM_STREAMING_MINER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/result.h"
#include "core/config.h"
#include "core/phase1_builder.h"
#include "quality/measure.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "relation/schema.h"
#include "stream/rule_index.h"
#include "stream/rule_snapshot.h"
#include "stream/snapshot_cell.h"
#include "stream/stream_config.h"
#include "telemetry/metrics.h"

namespace dar {

class QueryService;  // serve/query_service.h
class StreamingMiner;
struct StreamTestPeer;  // test-only backdoor; defined by tests

/// Everything StreamingMiner::RestoreFromFile recovers from a checkpoint:
/// the resumed stream plus the context a caller needs to keep feeding it —
/// the relation schema, the nominal-label dictionaries (empty when the
/// checkpoint carried none) and the DarConfig the checkpoint was written
/// under. The stream itself runs under the *restoring* session's config,
/// so comparing it against `saved_config` tells the caller whether they
/// are continuing the original run or warm re-mining the same summaries
/// under new thresholds.
struct RestoredStream {
  std::unique_ptr<StreamingMiner> stream;
  Schema schema;
  std::vector<Dictionary> dictionaries;
  DarConfig saved_config;
};

/// Incremental micro-batch mining (the tentpole of dar::stream): tuples
/// arrive in micro-batches, the per-part ACF-trees stay live across
/// batches (the same insert/absorb path batch Phase I uses — §3's single
/// pass, just never finished), and on a configurable cadence the current
/// summaries are re-mined into an immutable RuleSnapshot published through
/// an atomic shared_ptr swap.
///
/// Re-mining is *summary-only*: Phase1Builder::Snapshot() deep-clones the
/// live trees and runs the finishing pipeline on the clones, and Phase II
/// is a pure function of those summaries (Thm 6.1) — no ingested tuple is
/// ever revisited, so the cost of refreshing the rules is proportional to
/// the number of clusters, not to the stream length. Because the per-tree
/// insert sequence is identical to the batch path, a stream fed K
/// micro-batches on one thread publishes exactly the rule set a one-shot
/// Session::Mine over the concatenated batches derives.
///
/// Support counts and the quality layer: when the session's DarConfig has
/// count_rule_support set, the stream retains every ingested tuple and
/// each re-mine runs the §6.2 post-scan over the retained rows, so the
/// published rules carry exact support_count values just like the batch
/// path (without it, support_count stays -1: nothing is retained to
/// rescan). On top of that scan, StreamConfig::score_measures evaluates
/// interestingness measures per rule, prune_redundant marks near-duplicate
/// rules, and diff_snapshots classifies rules as born/died/drifted against
/// the previous generation — all carried by the published RuleSnapshot
/// (scored()/diff()) and surfaced as quality.* telemetry.
///
/// Threading contract: ONE writer thread calls Ingest/IngestRow/Remine;
/// any number of reader threads call snapshot()/Query()/generation()/
/// rows_ingested()/rows_since_snapshot() concurrently with it without
/// blocking (publication is a SnapshotCell pointer swap — its spin bit is
/// a compile-checked capability, see stream/snapshot_cell.h — and the
/// counters are plain atomics; the miner itself holds no mutex, so there
/// is nothing here for the thread-safety analysis to guard: writer-only
/// state like builder_ is protected by confinement, not locking).
/// A reader's snapshot is complete and internally consistent
/// (RuleSnapshot::CheckConsistency) and remains valid as long as the
/// reader holds the shared_ptr, even after newer generations replace it.
///
///     DAR_ASSIGN_OR_RETURN(auto stream,
///                          session.OpenStream(schema, partition));
///     DAR_RETURN_IF_ERROR(stream->Ingest(batch));  // may auto-publish
///     // Reads go through dar::QueryService (serve/query_service.h):
///     QueryService service;
///     service.AttachStream(*stream);
///     DAR_RETURN_IF_ERROR(service.PointQuery(request, response));
class StreamingMiner {
 public:
  /// Validates both configs and assembles the stream. `executor` may be
  /// null (serial); `registry` may be null (telemetry disabled). Prefer
  /// Session::OpenStream, which wires the session's executor and registry
  /// in.
  static Result<std::unique_ptr<StreamingMiner>> Make(
      const DarConfig& config, const Schema& schema,
      const AttributePartition& partition, StreamConfig stream_config,
      std::shared_ptr<Executor> executor,
      std::shared_ptr<telemetry::MetricsRegistry> registry);

  StreamingMiner(const StreamingMiner&) = delete;
  StreamingMiner& operator=(const StreamingMiner&) = delete;

  /// Absorbs one micro-batch (same schema as the stream). Feeds each
  /// part's tree with the identical insert/paging sequence AddRow would,
  /// part-parallel on the stream's executor. When the cadence is enabled
  /// and this batch crosses it, re-mines and publishes a new snapshot
  /// before returning.
  Status Ingest(const Relation& batch);

  /// Absorbs a single tuple (one value per schema attribute). Cadence
  /// applies as in Ingest.
  Status IngestRow(std::span<const double> row);

  /// Re-mines the current summaries and publishes the result as the new
  /// current snapshot, regardless of cadence. Returns the published
  /// snapshot. Fails (and publishes nothing) when no rows were ingested.
  Result<std::shared_ptr<const RuleSnapshot>> Remine();

  /// Adds a user-defined interestingness measure to this stream's registry
  /// so StreamConfig::score_measures may name it. The built-ins (support,
  /// confidence, lift, conviction, chi_squared) are pre-registered. Fails
  /// AlreadyExists on a name collision. Writer-thread only; register
  /// before the first re-mine that scores.
  Status RegisterMeasure(
      std::unique_ptr<quality::InterestingnessMeasure> measure) {
    return measures_.Register(std::move(measure));
  }

  /// Writes the stream's complete resumable state to `path` atomically
  /// (write-to-temp + rename; see persist/checkpoint_io.h for the format):
  /// config, schema, partition, the live per-part ACF-trees, the stream
  /// counters, and the current snapshot's results when one is published.
  /// `dictionaries` (one per nominal column, optional) are embedded so a
  /// restoring process can decode future nominal tuples identically.
  ///
  /// The trees are serialized bit-exactly, so a stream restored from this
  /// checkpoint re-mines to rules bit-identical to this stream's, at any
  /// thread count (Thm 6.1: Phase II is a pure function of the ACF
  /// summaries). Writer-thread only (reads the live builder).
  [[nodiscard]] Status SaveCheckpoint(
      const std::string& path,
      std::span<const Dictionary> dictionaries = {}) const;

  /// Reopens a checkpointed stream: rebuilds the live trees and counters
  /// from `path` and republishes the checkpointed snapshot (when one was
  /// recorded), ready to ingest from exactly where the saved stream
  /// stopped. `config` is the restoring session's DarConfig — pass the
  /// original for exact continuation, or different d0/frequency thresholds
  /// to warm re-mine the same summaries without any data access. Every
  /// corruption mode (truncation, bit flips, version skew) surfaces as a
  /// descriptive error Status, never a crash or a partially built stream.
  static Result<RestoredStream> RestoreFromFile(
      const std::string& path, const DarConfig& config,
      std::shared_ptr<Executor> executor,
      std::shared_ptr<telemetry::MetricsRegistry> registry);

  /// The schema this stream ingests under (what OpenStream was given).
  [[nodiscard]] const Schema& schema() const { return schema_; }

  /// The attribute partitioning this stream mines under.
  [[nodiscard]] const AttributePartition& partition() const {
    return partition_;
  }

  /// Total tuples absorbed so far.
  [[nodiscard]] int64_t rows_ingested() const {
    return rows_ingested_.load(std::memory_order_acquire);
  }

  /// Generation of the current snapshot; 0 until the first publication.
  [[nodiscard]] uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Staleness gauge: tuples absorbed since the current snapshot was
  /// derived (== rows_ingested() until the first publication).
  [[nodiscard]] int64_t rows_since_snapshot() const {
    return rows_ingested_.load(std::memory_order_acquire) -
           rows_at_snapshot_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const StreamConfig& stream_config() const {
    return stream_config_;
  }

 private:
  // Gates the public constructor (make_unique needs one) to Make().
  struct PrivateTag {
    explicit PrivateTag() = default;
  };

 public:
  StreamingMiner(PrivateTag, DarConfig config, StreamConfig stream_config,
                 Schema schema, AttributePartition partition,
                 std::shared_ptr<Executor> executor,
                 std::shared_ptr<telemetry::MetricsRegistry> registry,
                 Phase1Builder builder);

 private:
  // Snapshot readers go through dar::QueryService (serve/query_service.h),
  // which answers versioned point-query/listing/info requests from one
  // consistent snapshot generation and survives stream hot-swaps. The
  // service (and the test-only peer, defined by tests that diff whole
  // snapshots for bit-equality) reach the published snapshot through this
  // private accessor: callable from any thread, never blocks beyond
  // SnapshotCell's few-instruction pointer copy; null until the first
  // publication.
  friend class QueryService;
  friend struct StreamTestPeer;

  [[nodiscard]] std::shared_ptr<const RuleSnapshot> current_snapshot() const {
    return snapshot_.load();
  }

  // Publishes a fresh snapshot when the auto-remine cadence has been
  // crossed; no-op otherwise.
  Status MaybeRemine();

  // Saves a cadence checkpoint to stream_config_.checkpoint_path when the
  // checkpoint cadence has been crossed; no-op otherwise. Defined in
  // stream_checkpoint.cc with the rest of the persistence glue.
  Status MaybeCheckpoint();

  // True when ingested tuples are kept for the per-remine support
  // post-scan (and everything built on it).
  [[nodiscard]] bool retains_rows() const {
    return config_.count_rule_support;
  }

  // Computes the quality tail of one re-mine over the freshly derived
  // results: the support post-scan over retained_rows_ (updating each
  // rule's support_count in place), measure scoring, redundancy pruning,
  // and — when `previous` is non-null — the diff against it. Returns empty
  // artifacts when the stream retains nothing.
  Result<QualityArtifacts> ComputeQuality(const Phase1Result& phase1,
                                          Phase2Result& phase2,
                                          const RuleSnapshot* previous,
                                          uint64_t new_generation);

  DarConfig config_;
  StreamConfig stream_config_;
  Schema schema_;
  AttributePartition partition_;
  std::shared_ptr<Executor> executor_;  // may be null => serial
  std::shared_ptr<telemetry::MetricsRegistry> registry_;  // may be null
  Phase1Builder builder_;  // writer-thread only
  // Every ingested tuple, kept only when retains_rows(): the §6.2 support
  // post-scan and the quality layer rescan it each re-mine. Memory is then
  // O(stream length) — the caller opted in via count_rule_support.
  Relation retained_rows_;  // writer-thread only
  quality::MeasureRegistry measures_;  // writer-thread only

  SnapshotCell<const RuleSnapshot> snapshot_;
  std::atomic<uint64_t> generation_{0};
  std::atomic<int64_t> rows_ingested_{0};
  std::atomic<int64_t> rows_at_snapshot_{0};
  // Rows ingested when the last cadence checkpoint was written. Only the
  // writer thread reads or writes it, so a plain field suffices.
  int64_t rows_at_checkpoint_ = 0;

  // Telemetry handles, resolved once at construction (null when the
  // registry is null). Histograms carry Unit::kSeconds, so the exporter's
  // deterministic view excludes them automatically.
  telemetry::Counter* ingest_batches_ = nullptr;
  telemetry::Counter* ingest_rows_ = nullptr;
  telemetry::Counter* remines_ = nullptr;
  telemetry::Gauge* generation_gauge_ = nullptr;
  telemetry::Gauge* staleness_gauge_ = nullptr;
  telemetry::Gauge* snapshot_rules_ = nullptr;
  telemetry::Gauge* snapshot_clusters_ = nullptr;
  telemetry::Histogram* ingest_seconds_ = nullptr;
  telemetry::Histogram* remine_seconds_ = nullptr;
  telemetry::Gauge* stats_seconds_ = nullptr;  // only when retains_rows()
  telemetry::Counter* rules_scored_ = nullptr;
  telemetry::Counter* rules_pruned_ = nullptr;
  telemetry::Counter* rules_born_ = nullptr;
  telemetry::Counter* rules_died_ = nullptr;
  telemetry::Counter* rules_drifted_ = nullptr;
};

}  // namespace dar

#endif  // DAR_STREAM_STREAMING_MINER_H_
