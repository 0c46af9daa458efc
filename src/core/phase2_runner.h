#ifndef DAR_CORE_PHASE2_RUNNER_H_
#define DAR_CORE_PHASE2_RUNNER_H_

#include "common/executor.h"
#include "common/result.h"
#include "core/config.h"
#include "core/miner_result.h"
#include "core/model.h"
#include "telemetry/context.h"

namespace dar {

/// Everything Phase II needs besides the summaries themselves. All
/// pointers are optional and non-owning; null means serial / no recording.
struct Phase2RunOptions {
  Executor* executor = nullptr;
  telemetry::TelemetryContext telemetry;
};

/// Runs Phase II — clustering graph (Dfn 6.1), maximal cliques, rule
/// generation (§6.2) — from *borrowed* Phase-I summaries. By the ACF
/// Representativity Theorem (Thm 6.1) this never touches tuple data, which
/// is exactly why incremental re-mining is cheap: dar::stream re-runs this
/// on every snapshot while ingestion continues, and Session::RunPhase2 is a
/// thin delegate. The output is a pure function of `phase1` and `config`
/// for every executor (edge sweeps merge per-shard buffers in cluster-id
/// order).
Result<Phase2Result> RunPhase2OnSummaries(const Phase1Result& phase1,
                                          const DarConfig& config,
                                          const Phase2RunOptions& options);

}  // namespace dar

#endif  // DAR_CORE_PHASE2_RUNNER_H_
