// Shared pieces of the dar benchmark: command-line options, the result
// report (end-to-end and per-layer metrics plus output checks), sample
// statistics, rule-set fingerprints, and the per-layer replay of a mining
// refresh through the public function of each layer.
//
// The untraced run calls only the public facade (Session, StreamingMiner,
// QueryService, RuleServer). The traced run (--trace 1) replays the same
// steps through Phase1Builder, ClusteringGraph, EnumerateMaximalCliques,
// GenerateDistanceRules, RuleIndex, ComputeRuleStats and the quality
// functions, timing each call from here, and checks that the replay
// produced exactly the facade's outputs.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/executor.h"
#include "core/config.h"
#include "core/miner_result.h"
#include "core/model.h"
#include "core/rules.h"
#include "relation/partition.h"
#include "relation/relation.h"
#include "stream/stream_config.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmpdir = ".";
  // Executor threads of the measured paths and their replays. One thread
  // keeps the figures steadier on a shared host: a parallel phase waits for
  // its slowest thread, so contention on any one core stalls it.
  int threads = 1;
  // nproc: the N of the 1-vs-N speedups. Executors and the client load
  // stay within it.
  int parallel = 1;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Value at quantile q in [0, 1] of `samples` (linear interpolation between
/// closest ranks); 0 when empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Peak resident set size of this process so far, in MiB. Workloads read
/// it after set-up and their first full pass, so the figure does not
/// depend on how many passes fit in the run.
double PeakRssMib();

/// What a workload reports. End-to-end metrics are printed on untraced
/// runs, per-layer metrics on traced runs; every per-layer metric the
/// benchmark declares is printed, 0 where the workload's path does not
/// reach that layer.
class Report {
 public:
  Report();

  void SetEndToEnd(const std::string& name, double value);
  void SetLayer(const std::string& name, double value);

  /// Records an output check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Counts one attempted operation and whether it failed.
  void Attempt(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }
  [[nodiscard]] bool correct() const { return correct_; }

  /// Prints a human-readable line per metric, then the one-line JSON
  /// result. The run is incorrect when a check failed, an end-to-end
  /// metric was never measured, or a value is not finite. Returns the
  /// process exit code.
  int Print(bool trace) const;

 private:
  struct Metric {
    std::string unit;
    double value = 0;
    bool set = false;
  };
  std::vector<std::string> e2e_order_;
  std::map<std::string, Metric> e2e_;
  std::vector<std::string> layer_order_;
  std::map<std::string, Metric> layer_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Order-sensitive hash of a rule list: cluster ids, degree bits and
/// support counts. Two lists with equal fingerprints and sizes are taken
/// as identical.
uint64_t Fingerprint(std::span<const dar::DistanceRule> rules);

/// True when both rule lists are element-wise identical.
bool SameRules(std::span<const dar::DistanceRule> a,
               std::span<const dar::DistanceRule> b);

/// Shape seed: fixes each workload's planted cluster layout, so every
/// --seed draws fresh rows of the same data shape.
inline constexpr uint64_t kShapeSeed = 1997;

/// The mining config of the stream-suite shape (WbcdLikeSpec, 1-D parts
/// on a 1000-wide domain): bench_main's stream/serve/quality settings.
dar::DarConfig StreamShapeConfig(size_t attrs, size_t clusters);

/// Splits `rel` into consecutive batches of `batch_rows` rows.
std::vector<dar::Relation> SplitBatches(const dar::Relation& rel,
                                        size_t batch_rows);

// --- Per-layer replay ---------------------------------------------------

/// Per-stage seconds and counts of one Phase II replay.
struct Phase2Stages {
  double edges_s = 0;
  double cliques_s = 0;
  double rules_s = 0;
  int64_t edge_evaluations = 0;
  int64_t pruned_pairs = 0;
  int64_t cliques = 0;
  int64_t clique_steps = 0;
  int64_t degree_evaluations = 0;
};

/// Phase II through ClusteringGraph, EnumerateMaximalCliques and
/// GenerateDistanceRules with RunPhase2OnSummaries' exact options;
/// returns the rules (sorted like the runner sorts them).
dar::Phase2Result ReplayPhase2(const dar::Phase1Result& phase1,
                               const dar::DarConfig& config,
                               dar::Executor* executor, Phase2Stages& stages);

/// Records the per-layer metrics of one replayed batch mine.
void RecordMineReplay(const dar::Phase1Result& phase1, double add_s,
                      double finish_s, const Phase2Stages& stages,
                      size_t rules, Report& report);

/// What one refresh of a stream published, recorded by the untraced run
/// so the replay can be checked against it.
struct Publication {
  uint64_t fingerprint = 0;
  size_t rules = 0;
  size_t pruned = 0;
  size_t born = 0;
  size_t died = 0;
  size_t drifted = 0;
  double remine_s = 0;  // untraced Remine() time
};

/// Replays a stream fed `batches` in order, re-mining after batch b when
/// remine_after[b] is set, through the layer functions: AddRelation,
/// Snapshot, ReplayPhase2, the quality tail (ComputeRuleStats, ScoreRules,
/// PruneRedundant, DiffRuleSets) and RuleIndex::Build. Accumulates the
/// per-layer metrics into `report` and checks each replayed refresh
/// against `expected` (one entry per re-mine, in order).
void ReplayStream(const dar::DarConfig& config,
                  const dar::StreamConfig& stream_config,
                  const dar::Schema& schema,
                  const dar::AttributePartition& partition,
                  dar::Executor* executor,
                  const std::vector<const dar::Relation*>& batches,
                  const std::vector<bool>& remine_after,
                  const std::vector<Publication>& expected, Report& report);

/// 1-thread over N-thread time of AddRelation over `rel` (fresh builders),
/// and of ClusteringGraph and EnumerateMaximalCliques on `phase1`.
void RecordSpeedups(const dar::DarConfig& config, const dar::Relation& rel,
                    const dar::AttributePartition& partition,
                    const dar::Phase1Result& phase1, int threads,
                    Report& report);

// --- Workloads ----------------------------------------------------------

void RunMinePaper(const Options& options, Report& report);
void RunStreamRefresh(const Options& options, Report& report);
void RunStreamScored(const Options& options, Report& report);
void RunServeSwap(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
