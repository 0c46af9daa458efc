#ifndef DAR_CORE_COORDINATOR_H_
#define DAR_CORE_COORDINATOR_H_

#include <span>
#include <string>

#include "common/result.h"
#include "core/mining_report.h"
#include "core/session.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace dar {

/// Distributed mining front-end over a Session (experimental API tier).
///
/// ACF additivity (Eq. 3/7, Thm 6.1) means Phase I can run independently
/// over disjoint shards of the data — on the session's executor within one
/// process, or in separate processes that exchange persist-format
/// checkpoints — after which the shard summaries merge into one Phase-I
/// state and Phase II runs exactly once on the union. Obtain one via
/// Session::NewCoordinator(); the session must outlive it.
///
///     DAR_ASSIGN_OR_RETURN(auto report,
///                          session.NewCoordinator().MineSharded(
///                              rel, partition, /*num_shards=*/8));
///
/// Determinism: shard builders are serial and fed contiguous row ranges,
/// and shard merges are applied in shard order, so for a fixed shard count
/// the result is bit-identical for every executor / thread count. Changing
/// the *shard count* regroups the floating-point sums inside each summary,
/// so across shard counts results agree exactly only when the coordinate
/// sums are exact (e.g. integer-valued data) and otherwise to within the
/// usual re-absorption tolerance (see DESIGN.md "Distributed mining").
class Coordinator {
 public:
  /// Shards `rel` into `num_shards` contiguous row ranges, builds one
  /// serial Phase-I state per shard (fanned across the session's
  /// executor), merges them in shard order, and runs Phase II once. The
  /// per-shard builders record no telemetry; the merging builder records
  /// into the session's registry (merge.* series). Mirrors
  /// Session::Mine: resets the session registry and reports one run.
  Result<MiningReport> MineSharded(const Relation& rel,
                                   const AttributePartition& partition,
                                   size_t num_shards) const;

  /// Merges N persist-format checkpoints (persist::MergeCheckpoints) and
  /// runs Phase II once on the merged summaries — the cross-process half
  /// of the fan-out: workers SaveCheckpoint their shards, the coordinator
  /// mines the union without ever seeing the data. Rule support counts are
  /// left at -1 (the data is not available for the §6.2 rescan). Defined
  /// in src/persist/ — callers link the umbrella `dar` target.
  Result<MiningReport> MineFromCheckpoints(
      std::span<const std::string> paths) const;

 private:
  friend class Session;
  explicit Coordinator(const Session* session) : session_(session) {}

  const Session* session_;  // not owned; must outlive the coordinator
};

}  // namespace dar

#endif  // DAR_CORE_COORDINATOR_H_
