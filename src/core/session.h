#ifndef DAR_CORE_SESSION_H_
#define DAR_CORE_SESSION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/result.h"
#include "core/config.h"
#include "core/miner_result.h"
#include "core/mining_report.h"
#include "core/model.h"
#include "core/rules.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "stream/stream_config.h"
#include "telemetry/context.h"
#include "telemetry/metrics.h"

namespace dar {

class Coordinator;      // core/coordinator.h
class StreamingMiner;   // stream/streaming_miner.h
struct RestoredStream;  // stream/streaming_miner.h

/// The library's mining facade: a validated DarConfig, an Executor that
/// decides how the two phases use the hardware, and a MetricsRegistry both
/// phases record into — the one channel a run reports progress through.
/// Construct through the fluent Builder:
///
///     DAR_ASSIGN_OR_RETURN(
///         dar::Session session,
///         dar::Session::Builder()
///             .WithConfig(config)
///             .WithThreads(8)                 // or .WithExecutor(...)
///             .Build());                      // validates the config
///     DAR_ASSIGN_OR_RETURN(MiningReport report,
///                          session.Mine(rel, partition));
///     // report.rules(), report.phase1(), report.telemetry, ...
///
/// Determinism guarantee: for a fixed config and input, every executor —
/// SerialExecutor, ThreadPoolExecutor(k) for any k — produces bit-identical
/// results (clusters, graph, cliques, rules, counters). Phase I builds one
/// independent ACF-tree per attribute part (Thm 6.1 keeps cross-attribute
/// sums inside each ACF) and Phase II shards pure edge predicates with
/// per-shard buffers merged in cluster-id order, so parallelism never
/// reorders a floating-point reduction. tests/session_test.cc pins this.
class Session {
 public:
  class Builder {
   public:
    Builder() = default;

    /// Sets the mining configuration (default: DarConfig{}).
    Builder& WithConfig(DarConfig config) {
      config_ = std::move(config);
      return *this;
    }

    /// Sets the executor both phases run on. Default: SerialExecutor.
    Builder& WithExecutor(std::shared_ptr<Executor> executor) {
      executor_ = std::move(executor);
      return *this;
    }

    /// Convenience: WithExecutor(MakeExecutor(num_threads)) — <= 1 means
    /// serial, 0 means hardware concurrency.
    Builder& WithThreads(int num_threads) {
      return WithExecutor(MakeExecutor(num_threads));
    }

    /// Validates the config (DarConfig::Validate) and assembles the
    /// session; refuses to construct on any invalid knob.
    [[nodiscard]] Result<Session> Build() const;

   private:
    DarConfig config_;
    std::shared_ptr<Executor> executor_;
  };

  /// Runs both phases on `rel` under the user's attribute partitioning
  /// and returns the results bundled with the run's telemetry snapshot.
  /// The registry is reset at the start of the run, so each Mine call
  /// reports one run; poll metrics().TakeSnapshot() from another thread
  /// for live progress. Concurrent Mine calls on one Session would share
  /// (and race on resetting) the registry — run them on separate
  /// Sessions.
  Result<MiningReport> Mine(const Relation& rel,
                            const AttributePartition& partition) const;

  /// Runs Phase I only (used by scaling benches and by callers that want
  /// to inspect clusters before rule formation). Parallelized per
  /// attribute part on the session's executor.
  Result<Phase1Result> RunPhase1(const Relation& rel,
                                 const AttributePartition& partition) const;

  /// Runs Phase II on an existing Phase-I result. The clustering-graph
  /// edge sweep is parallelized on the session's executor.
  [[nodiscard]] Result<Phase2Result> RunPhase2(
      const Phase1Result& phase1) const;

  /// Opens an incremental mining stream over this session's config,
  /// executor and metrics registry: a StreamingMiner that accepts
  /// micro-batches of tuples, keeps the per-part ACF-trees live, and
  /// republishes an immutable RuleSnapshot (rules + tuple->rule query
  /// index) on a configurable cadence — ingest-while-serving, no rescans
  /// (see stream/streaming_miner.h for the threading contract).
  ///
  /// The stream records into the session's registry cumulatively. A Mine()
  /// call on the same Session zeroes the registry (the stream's handles
  /// stay valid) so the stream's counters restart from that point.
  /// Defined in src/stream/ — callers link the umbrella `dar` target.
  [[nodiscard]] Result<std::unique_ptr<StreamingMiner>> OpenStream(
      const Schema& schema, const AttributePartition& partition,
      StreamConfig stream_config = {}) const;

  /// Persists `stream`'s complete resumable state — config, schema,
  /// partition, the live per-part ACF-trees, counters and the current
  /// snapshot — to `path` atomically (versioned, CRC-guarded container;
  /// see persist/checkpoint_io.h). `dictionaries` are embedded when given
  /// so a restoring process decodes nominal tuples identically. Convenience
  /// forwarder for StreamingMiner::SaveCheckpoint; defined in src/stream/
  /// — callers link the umbrella `dar` target.
  [[nodiscard]] Status SaveCheckpoint(
      const StreamingMiner& stream, const std::string& path,
      std::span<const Dictionary> dictionaries = {}) const;

  /// Reopens a checkpointed stream under THIS session's config, executor
  /// and registry: restored summaries re-mine to rules
  /// bit-identical to the saved stream's when the config matches, and warm
  /// re-mine under this session's thresholds when it does not (no data
  /// access either way — Thm 6.1). Any corruption of the file surfaces as
  /// a descriptive error Status. Defined in src/stream/.
  [[nodiscard]] Result<RestoredStream> RestoreCheckpoint(
      const std::string& path) const;

  /// Distributed mining front-end (experimental tier): shard Phase I
  /// across the executor or across processes via checkpoint files, merge
  /// the summaries (ACF additivity), run Phase II once. The session must
  /// outlive the returned coordinator. See core/coordinator.h.
  [[nodiscard]] Coordinator NewCoordinator() const;

  /// Optional §6.2 post-processing: rescans `rel` once and fills
  /// `support_count` of every rule with the number of tuples assigned to
  /// all of the rule's clusters. Row ranges are sharded on the executor;
  /// per-shard counts are summed in shard order.
  Status CountRuleSupport(const Relation& rel,
                          const AttributePartition& partition,
                          const Phase1Result& phase1,
                          std::vector<DistanceRule>& rules) const;

  [[nodiscard]] const DarConfig& config() const { return config_; }
  [[nodiscard]] Executor& executor() const { return *executor_; }

  /// The session's metrics registry. RunPhase1/RunPhase2 record into it
  /// cumulatively; Mine resets it per run. Callers driving the phases
  /// directly can TakeSnapshot()/Reset() it between runs themselves.
  [[nodiscard]] telemetry::MetricsRegistry& metrics() const {
    return *registry_;
  }

 private:
  // The coordinator drives the session's private pipeline pieces
  // (registry) when orchestrating sharded runs.
  friend class Coordinator;

  Session(DarConfig config, std::shared_ptr<Executor> executor,
          std::shared_ptr<telemetry::MetricsRegistry> registry)
      : config_(std::move(config)),
        executor_(std::move(executor)),
        registry_(std::move(registry)) {}

  DarConfig config_;
  std::shared_ptr<Executor> executor_;
  std::shared_ptr<telemetry::MetricsRegistry> registry_;
};

}  // namespace dar

#endif  // DAR_CORE_SESSION_H_
