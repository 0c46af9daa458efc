#include "core/phase2_runner.h"

#include <algorithm>

#include "common/stopwatch.h"
#include "core/clustering_graph.h"
#include "core/rule_gen.h"
#include "graph/clique.h"

namespace dar {

Result<Phase2Result> RunPhase2OnSummaries(const Phase1Result& phase1,
                                          const DarConfig& config,
                                          const Phase2RunOptions& options) {
  Stopwatch watch;
  Phase2Result out;
  const telemetry::TelemetryContext telem = options.telemetry;

  ClusteringGraphOptions graph_opts;
  graph_opts.metric = config.metric;
  graph_opts.prune_low_density_images = config.prune_low_density_images;
  graph_opts.executor = options.executor;
  graph_opts.telemetry = telem;
  graph_opts.d0.reserve(phase1.effective_d0.size());
  for (double d0 : phase1.effective_d0) {
    graph_opts.d0.push_back(d0 * config.phase2_leniency);
  }

  ClusteringGraph graph(phase1.clusters, graph_opts);
  out.graph_edges = graph.num_edges();

  graph::CliqueOptions clique_opts;
  clique_opts.max_cliques = config.max_cliques;
  // Dense graphs can grind for a long time between emitted cliques; the
  // step budget makes truncation responsive, not just the clique cap.
  clique_opts.max_steps = config.max_cliques != 0 ? 64 * config.max_cliques : 0;
  clique_opts.executor = options.executor;
  clique_opts.telemetry = telem;
  graph::CliqueResult cliques =
      graph::EnumerateMaximalCliques(graph.graph(), clique_opts);
  out.clique_cap_truncated = cliques.clique_cap_truncated;
  out.clique_steps_truncated = cliques.step_budget_truncated;
  out.cliques_truncated =
      out.clique_cap_truncated || out.clique_steps_truncated;
  out.cliques.reserve(cliques.cliques.size());
  for (const auto& q : cliques.cliques) {
    out.cliques.emplace_back(q.begin(), q.end());
    if (q.size() >= 2) ++out.num_nontrivial_cliques;
  }

  RuleGenOptions rule_opts;
  rule_opts.metric = config.metric;
  rule_opts.degree_threshold = config.degree_threshold;
  rule_opts.degree_thresholds = config.degree_thresholds;
  rule_opts.max_antecedent = config.max_antecedent;
  rule_opts.max_consequent = config.max_consequent;
  rule_opts.max_rules = config.max_rules;
  RuleGenResult rules =
      GenerateDistanceRules(phase1.clusters, out.cliques, rule_opts);
  out.rules = std::move(rules.rules);
  out.rules_truncated = rules.truncated;

  // Strongest rules first.
  std::sort(out.rules.begin(), out.rules.end(),
            [](const DistanceRule& a, const DistanceRule& b) {
              return a.degree < b.degree;
            });
  out.seconds = watch.ElapsedSeconds();

  // The loose Phase-II counters live in the snapshot now; recorded once
  // per run on the coordinating thread, so their values are deterministic.
  if (!telem.enabled()) return out;
  telem.GetCounter("phase2.edge_evaluations")
      ->Increment(graph.comparisons_made());
  telem.GetCounter("phase2.pruned_pairs")
      ->Increment(graph.comparisons_skipped());
  telem.GetCounter("phase2.graph_edges")
      ->Increment(static_cast<int64_t>(out.graph_edges));
  telem.GetCounter("phase2.cliques")
      ->Increment(static_cast<int64_t>(out.cliques.size()));
  telem.GetCounter("phase2.nontrivial_cliques")
      ->Increment(static_cast<int64_t>(out.num_nontrivial_cliques));
  telem.GetCounter("phase2.clique_cap_truncations")
      ->Increment(out.clique_cap_truncated ? 1 : 0);
  telem.GetCounter("phase2.clique_step_truncations")
      ->Increment(out.clique_steps_truncated ? 1 : 0);
  telem.GetCounter("phase2.degree_evaluations")
      ->Increment(rules.degree_evaluations);
  telem.GetCounter("phase2.rules")
      ->Increment(static_cast<int64_t>(out.rules.size()));
  telem.GetGauge("phase2.seconds", telemetry::Unit::kSeconds)
      ->Set(out.seconds);
  return out;
}

}  // namespace dar
