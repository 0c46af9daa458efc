#include "core/session.h"

#include <algorithm>
#include <cmath>

#include "birch/acf_tree.h"
#include "common/stopwatch.h"
#include "core/phase1_builder.h"
#include "core/phase2_runner.h"
#include "core/rule_stats.h"

namespace dar {

Result<Session> Session::Builder::Build() const {
  DAR_RETURN_IF_ERROR(config_.Validate());
  std::shared_ptr<Executor> executor =
      executor_ != nullptr ? executor_
                           : std::make_shared<SerialExecutor>();
  return Session(config_, std::move(executor),
                 std::make_shared<telemetry::MetricsRegistry>());
}

Result<Phase1Result> Session::RunPhase1(
    const Relation& rel, const AttributePartition& partition) const {
  if (rel.num_rows() == 0) {
    return Status::InvalidArgument("relation is empty");
  }
  DAR_ASSIGN_OR_RETURN(
      Phase1Builder builder,
      Phase1Builder::Make(config_, rel.schema(), partition, executor_.get(),
                          telemetry::TelemetryContext(registry_.get())));
  DAR_RETURN_IF_ERROR(builder.AddRelation(rel));
  return std::move(builder).Finish();
}

Result<Phase2Result> Session::RunPhase2(const Phase1Result& phase1) const {
  // Phase II is summary-only (Thm 6.1): delegate to the shared runner that
  // dar::stream re-mines through as well.
  Phase2RunOptions options;
  options.executor = executor_.get();
  options.telemetry = telemetry::TelemetryContext(registry_.get());
  return RunPhase2OnSummaries(phase1, config_, options);
}

// Session::OpenStream is defined in src/stream/streaming_miner.cc: the
// stream subsystem layers on top of dar_core, so the facade's streaming
// entry point lives (and links) with the code it constructs.

Status Session::CountRuleSupport(const Relation& rel,
                                 const AttributePartition& partition,
                                 const Phase1Result& phase1,
                                 std::vector<DistanceRule>& rules) const {
  // The §6.2 support count is the `both` cell of the full contingency
  // table; the generalized scan (core/rule_stats.h) shards the rescan and
  // merges integer counts in shard order, so the result stays
  // executor-independent.
  DAR_ASSIGN_OR_RETURN(
      const std::vector<RuleStats> stats,
      ComputeRuleStats(rel, partition, phase1.clusters, rules,
                       executor_.get()));
  for (size_t k = 0; k < rules.size(); ++k) {
    rules[k].support_count = stats[k].both;
  }
  return Status::OK();
}

Result<MiningReport> Session::Mine(
    const Relation& rel, const AttributePartition& partition) const {
  registry_->Reset();  // one Mine call == one reported run
  MiningReport report;
  DAR_ASSIGN_OR_RETURN(report.result.phase1, RunPhase1(rel, partition));
  DAR_ASSIGN_OR_RETURN(report.result.phase2,
                       RunPhase2(report.result.phase1));
  if (config_.count_rule_support) {
    DAR_RETURN_IF_ERROR(CountRuleSupport(rel, partition,
                                         report.result.phase1,
                                         report.result.phase2.rules));
  }
  report.telemetry = registry_->TakeSnapshot();
  return report;
}

}  // namespace dar
