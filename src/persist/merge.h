#ifndef DAR_PERSIST_MERGE_H_
#define DAR_PERSIST_MERGE_H_

#include <span>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/result.h"
#include "core/config.h"
#include "core/phase1_builder.h"
#include "persist/codec.h"
#include "relation/partition.h"
#include "relation/schema.h"
#include "telemetry/context.h"

namespace dar::persist {

/// Checkpoint-level shard merging: the persist container format doubles as
/// the wire format of distributed mining (ROADMAP item 3). Worker
/// processes mine disjoint data shards and SaveCheckpoint their Phase-I
/// state; MergeCheckpoints decodes the checkpoints one at a time,
/// cross-checks compatibility, and folds the per-part ACF-trees into one
/// builder by ACF additivity (Eq. 3/7) — the coordinator never sees a
/// tuple. See DESIGN.md "Distributed mining" for the compatibility policy.

/// Knobs for MergeCheckpoints. All pointers are optional, non-owning and
/// must outlive the returned builder.
struct MergeOptions {
  /// Config the merged builder is rebuilt under; null means the inputs'
  /// own (shared) saved config. Passing a different config warm-re-mines
  /// the merged summaries under new thresholds, exactly like
  /// Session::RestoreCheckpoint.
  const DarConfig* config = nullptr;
  /// Executor for the merged builder (part-parallel merge + Finish).
  Executor* executor = nullptr;
  /// Records merge.* counters/histograms when enabled.
  telemetry::TelemetryContext telemetry;
};

/// A merged multi-shard Phase-I state plus everything needed to interpret
/// or re-persist it. Write it back out with WriteMergedCheckpoint, or run
/// Phase II on `std::move(builder).Finish()` (Coordinator::
/// MineFromCheckpoints does both ends for you).
struct MergedCheckpoint {
  /// The inputs' shared saved config (NOT MergeOptions::config).
  DarConfig config;
  Schema schema;
  AttributePartition partition;
  /// Reconciled dictionaries: per column, the longest of the inputs'
  /// dictionaries (each must be a prefix of the longest — codes are baked
  /// into the summaries and cannot be remapped).
  std::vector<Dictionary> dictionaries;
  /// Union of the inputs' shard provenance, in input order. Inputs without
  /// a shards section contribute one anonymous entry {-1, rows}.
  std::vector<ShardInfo> shards;
  /// The merged Phase-I state over the union of all shards' tuples.
  Phase1Builder builder;
};

/// Merges N shard checkpoints. Every incompatibility is a descriptive
/// error Status naming the offending file(s): schema mismatch, partition
/// mismatch, config mismatch (first differing knob), irreconcilable
/// dictionaries, empty shards (0 rows), duplicate non-negative shard ids,
/// and version-skewed or corrupt containers (via CheckpointReader).
Result<MergedCheckpoint> MergeCheckpoints(std::span<const std::string> paths,
                                          const MergeOptions& options = {});

/// Persists a merged checkpoint atomically: kConfig/kSchema/kPartition/
/// [kDictionaries]/kBuilder/kShards. Merged checkpoints are coordinator
/// artifacts — they carry no stream state or rule snapshot — but are
/// themselves valid MergeCheckpoints inputs, so merging can proceed in
/// trees of any shape.
Status WriteMergedCheckpoint(const MergedCheckpoint& merged,
                             const std::string& path);

}  // namespace dar::persist

#endif  // DAR_PERSIST_MERGE_H_
