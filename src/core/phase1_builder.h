#ifndef DAR_CORE_PHASE1_BUILDER_H_
#define DAR_CORE_PHASE1_BUILDER_H_

#include <functional>
#include <memory>
#include <vector>

#include "birch/acf_tree.h"
#include "common/executor.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "core/config.h"
#include "core/model.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "telemetry/context.h"

namespace dar {

/// Incremental (streaming) Phase I: feed tuples one at a time, then
/// Finish(). This is the §3 operating mode — the trees adapt to the memory
/// budget *while* the single pass is in progress, so the data never needs
/// to fit in memory and can come from a cursor, a file, or a socket.
///
///     DAR_ASSIGN_OR_RETURN(Phase1Builder builder,
///                          Phase1Builder::Make(config, schema, partition));
///     while (auto row = source.Next()) {
///       DAR_RETURN_IF_ERROR(builder.AddRow(*row));
///     }
///     DAR_ASSIGN_OR_RETURN(Phase1Result phase1, std::move(builder).Finish());
///
/// For materialized relations, AddRelation() feeds every attribute part's
/// tree independently — each part's ACF-tree only ever sees its own
/// insertions (Theorem 6.1 keeps cross-attribute sums inside each ACF), so
/// when an Executor with parallelism > 1 is supplied the parts run
/// concurrently. Per-tree insertion order and outlier-paging cadence are
/// identical in both modes and for every executor, so the resulting trees
/// (and everything downstream) are bit-identical to a serial run.
///
/// Session::RunPhase1 feeds a Relation through this builder with the
/// session's executor and metrics registry.
class Phase1Builder {
 public:
  /// Validates the configuration and builds one ACF-tree per part.
  /// `executor` is an optional non-owning pointer that must outlive the
  /// builder; null means serial. `telemetry` is
  /// an optional recording context (default: disabled); the batch
  /// AddRelation/Finish path records per-part insert/split/rebuild
  /// counters, tree heights and sampled absorb latencies through it.
  static Result<Phase1Builder> Make(
      const DarConfig& config, const Schema& schema,
      const AttributePartition& partition, Executor* executor = nullptr,
      telemetry::TelemetryContext telemetry = {});

  Phase1Builder(Phase1Builder&&) = default;
  Phase1Builder& operator=(Phase1Builder&&) = default;

  /// Adds one tuple; `row` must have one value per schema attribute.
  Status AddRow(std::span<const double> row);

  /// Adds every tuple of `rel`, part-parallel when an executor was given.
  /// Equivalent to calling AddRow for each row in order.
  Status AddRelation(const Relation& rel);

  /// Number of tuples added so far.
  [[nodiscard]] int64_t rows_added() const { return rows_added_; }

  /// Absorbs another builder's Phase-I state, built over a *disjoint* tuple
  /// set under a structurally identical schema/partition (ACF additivity,
  /// Eq. 3/7): each part's tree is merged summary-by-summary
  /// (AcfTree::MergeFrom) and the row count accumulated, so a subsequent
  /// Finish()/Snapshot() summarizes the union of both inputs without any
  /// rescan. A builder with no rows yet adopts clones of `other`'s trees
  /// and layout instead, so merging into an empty builder is an identity.
  /// Refuses an empty `other` or a different schema width/partitioning.
  /// Part-parallel when an executor was given; `other` (which may come
  /// from a decoded checkpoint of another process) is unchanged.
  Status MergeFrom(const Phase1Builder& other);

  /// Re-absorbs outliers, optionally refines clusters, applies the
  /// frequency threshold and assembles the Phase1Result (part-parallel
  /// when an executor was given; output is merged in part order and does
  /// not depend on the executor). The builder is consumed.
  Result<Phase1Result> Finish() &&;

  /// Non-consuming Finish: deep-clones every live tree and runs the exact
  /// finishing pipeline (FinishScan, optional refinement, frequency
  /// filtering, d0 derivation) on the clones, leaving the builder ready to
  /// absorb more rows. For identical rows this produces a Phase1Result
  /// bit-identical to Finish() — it is the incremental re-mine primitive of
  /// dar::stream: Phase II only needs the summaries, so rules can be
  /// re-derived mid-stream without rescanning any data (Thm 6.1).
  [[nodiscard]] Result<Phase1Result> Snapshot() const;

 private:
  // Serialization backdoor for dar::persist (persist/persist_peer.h):
  // checkpoint encode reads the trees, decode reconstructs a builder
  // through this constructor with deserialized trees.
  friend struct PersistPeer;

  Phase1Builder(DarConfig config, AttributePartition partition,
                std::shared_ptr<const AcfLayout> layout,
                std::vector<std::unique_ptr<AcfTree>> trees,
                size_t schema_width, Executor* executor,
                telemetry::TelemetryContext telemetry);

  // Keeps each tree's outlier paging threshold in step with the running
  // tuple count (s0 is only known at Finish in streaming mode).
  void UpdateOutlierThresholds();

  // Outlier paging threshold for a tree that has seen `rows` tuples.
  [[nodiscard]] int64_t OutlierMinN(int64_t rows) const;

  // Feeds rows [0, rel.num_rows()) of `rel` into part `p`'s tree,
  // replaying the exact per-tree insert/paging sequence of AddRow.
  Status FeedPart(const Relation& rel, size_t p);

  // Runs fn(p) for every part, on the executor when present.
  Status ForEachPart(const std::function<Status(size_t)>& fn) const;

  // Shared finishing pipeline over `trees` (the real trees for Finish, a
  // fresh set of clones for Snapshot). Mutates the given trees (outlier
  // re-absorption), never the builder itself.
  Result<Phase1Result> FinishTrees(
      std::vector<std::unique_ptr<AcfTree>>& trees) const;

  // Records the Phase-I counters/gauges of `out` into telemetry_ (no-op
  // when the context is disabled). Called once from Finish.
  void RecordTelemetry(const Phase1Result& out) const;

  DarConfig config_;
  AttributePartition partition_;
  std::shared_ptr<const AcfLayout> layout_;
  std::vector<std::unique_ptr<AcfTree>> trees_;
  size_t schema_width_;
  Executor* executor_ = nullptr;  // not owned; may be null
  telemetry::TelemetryContext telemetry_;  // disabled by default
  int64_t rows_added_ = 0;
  Stopwatch watch_;
  PartedRow scratch_;
};

}  // namespace dar

#endif  // DAR_CORE_PHASE1_BUILDER_H_
