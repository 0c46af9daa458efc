#include "core/coordinator.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "core/merge.h"
#include "core/phase1_builder.h"
#include "core/phase2_runner.h"

namespace dar {

Coordinator Session::NewCoordinator() const { return Coordinator(this); }

Result<MiningReport> Coordinator::MineSharded(
    const Relation& rel, const AttributePartition& partition,
    size_t num_shards) const {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (rel.num_rows() == 0) {
    return Status::InvalidArgument("relation is empty");
  }
  num_shards = std::min(num_shards, rel.num_rows());

  const Session& session = *session_;
  session.registry_->Reset();  // mirrors Mine: one call == one reported run
  telemetry::TelemetryContext telemetry(session.registry_.get());
  Stopwatch watch;

  // Phase I per shard: contiguous row ranges, one *serial* builder each
  // (executor = nullptr), fanned across the session's executor. Serial
  // shard builders + merges applied in shard order below make the result
  // a pure function of (data, config, num_shards) — never of the thread
  // count. Shard builders record no telemetry; the merging builder records
  // into the session's registry.
  std::vector<std::optional<Phase1Builder>> shards(num_shards);
  DAR_RETURN_IF_ERROR(session.executor_->ParallelFor(
      num_shards, [&](size_t s) -> Status {
        DAR_ASSIGN_OR_RETURN(
            Phase1Builder builder,
            Phase1Builder::Make(session.config_, rel.schema(), partition));
        // Balanced split: with num_shards <= num_rows every shard is
        // non-empty (an empty shard would be refused by MergeBuilders).
        const size_t begin = s * rel.num_rows() / num_shards;
        const size_t end = (s + 1) * rel.num_rows() / num_shards;
        std::vector<double> buf(rel.num_columns());
        for (size_t r = begin; r < end; ++r) {
          for (size_t c = 0; c < rel.num_columns(); ++c) {
            buf[c] = rel.at(r, c);
          }
          DAR_RETURN_IF_ERROR(builder.AddRow(buf));
        }
        shards[s].emplace(std::move(builder));
        return Status::OK();
      }));

  // Merge in shard order into a fresh builder wired to the session's
  // executor (so re-absorption part-parallelizes) and registry.
  DAR_ASSIGN_OR_RETURN(
      Phase1Builder merged,
      Phase1Builder::Make(session.config_, rel.schema(), partition,
                          session.executor_.get(), telemetry));
  for (auto& shard : shards) {
    DAR_RETURN_IF_ERROR(MergeBuilders(merged, *shard, telemetry));
  }
  if (telemetry.enabled()) {
    telemetry.GetCounter("merge.shards")
        ->Increment(static_cast<int64_t>(num_shards));
    telemetry
        .GetHistogram("merge.seconds", telemetry::Histogram::LatencyBounds())
        ->Record(watch.ElapsedSeconds());
  }

  MiningReport report;
  DAR_ASSIGN_OR_RETURN(report.result.phase1, std::move(merged).Finish());
  DAR_ASSIGN_OR_RETURN(report.result.phase2,
                       session.RunPhase2(report.result.phase1));
  if (session.config_.count_rule_support) {
    DAR_RETURN_IF_ERROR(
        session.CountRuleSupport(rel, partition, report.result.phase1,
                                 report.result.phase2.rules));
  }
  report.telemetry = session.registry_->TakeSnapshot();
  return report;
}

// Coordinator::MineFromCheckpoints is defined in src/persist/merge.cc: the
// checkpoint-merging half layers on dar_persist, so the coordinator's
// cross-process entry point lives (and links) with the code it decodes —
// the same arrangement as Session::OpenStream / SaveCheckpoint in
// src/stream/.

}  // namespace dar
