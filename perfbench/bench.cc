#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <utility>

#include "core/clustering_graph.h"
#include "core/phase1_builder.h"
#include "core/rule_gen.h"
#include "core/rule_stats.h"
#include "graph/clique.h"
#include "quality/diff.h"
#include "quality/measure.h"
#include "quality/prune.h"
#include "quality/scored_rules.h"
#include "stream/rule_index.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Bounded end-to-end metrics; every workload reports each of them (see
// README.md for what each means per workload).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"refresh_p50_s", "s"},
    {"refresh_p75_s", "s"},
    {"peak_rss_mib", "MiB"},
};

// Per-layer metrics of the traced run, named after the module they time,
// plus the end-to-end figures that exist on one workload only or that this
// machine cannot repeat within a bound (ingest rates; see README.md).
constexpr MetricDef kLayers[] = {
    {"ingest_rows_per_s", "rows/s"},
    {"phase1.add_s", "s"},
    {"phase1.finish_s", "s"},
    {"phase1.snapshot_s", "s"},
    {"phase1.raw_acfs", "count"},
    {"phase1.clusters", "count"},
    {"phase1.splits", "count"},
    {"phase1.rebuilds", "count"},
    {"phase1.add_speedup", "x"},
    {"phase2.edges_s", "s"},
    {"phase2.edge_evaluations", "count"},
    {"phase2.pruned_pairs", "count"},
    {"phase2.edges_speedup", "x"},
    {"phase2.cliques_s", "s"},
    {"phase2.cliques", "count"},
    {"phase2.clique_steps", "count"},
    {"phase2.cliques_speedup", "x"},
    {"phase2.rules_s", "s"},
    {"phase2.degree_evaluations", "count"},
    {"phase2.rules", "count"},
    {"phase2.rule_yield", "ratio"},
    {"index.build_s", "s"},
    {"index.query_us", "us"},
    {"index.hits_per_query", "count"},
    {"remine.unaccounted_s", "s"},
    {"quality.stats_s", "s"},
    {"quality.row_rule_checks", "count"},
    {"quality.stats_speedup", "x"},
    {"quality.score_s", "s"},
    {"quality.prune_s", "s"},
    {"quality.pruned", "count"},
    {"quality.diff_s", "s"},
    {"persist.save_s", "s"},
    {"persist.checkpoint_bytes", "bytes"},
    {"persist.restore_s", "s"},
    {"recover_s", "s"},
    {"serve.qps", "1/s"},
    {"serve.point_p50_ms", "ms"},
    {"serve.point_p99_ms", "ms"},
    {"serve.browse_p50_ms", "ms"},
    {"serve.browse_p99_ms", "ms"},
    {"serve.writer_lag_s", "s"},
    {"serve.point_response_bytes", "bytes"},
    {"service.point_us", "us"},
    {"service.list_us", "us"},
    {"protocol.encode_point_us", "us"},
    {"protocol.decode_point_us", "us"},
    {"trace.coverage", "ratio"},
    {"trace.residual_s", "s"},
    {"trace.overhead", "ratio"},
};

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void HashMix(uint64_t& h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Report::Report() {
  for (const MetricDef& def : kEndToEnd) {
    e2e_order_.push_back(def.name);
    e2e_[def.name].unit = def.unit;
  }
  for (const MetricDef& def : kLayers) {
    layer_order_.push_back(def.name);
    layer_[def.name].unit = def.unit;
  }
}

void Report::SetEndToEnd(const std::string& name, double value) {
  auto it = e2e_.find(name);
  if (it == e2e_.end()) {
    Check(false, "unknown end-to-end metric " + name);
    return;
  }
  it->second.value = value;
  it->second.set = true;
}

void Report::SetLayer(const std::string& name, double value) {
  auto it = layer_.find(name);
  if (it == layer_.end()) {
    Check(false, "unknown per-layer metric " + name);
    return;
  }
  it->second.value = value;
  it->second.set = true;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

int Report::Print(bool trace) const {
  const auto& order = trace ? layer_order_ : e2e_order_;
  const auto& metrics = trace ? layer_ : e2e_;
  // Every end-to-end metric must be measured; per-layer metrics read 0
  // where the workload does not reach the layer.
  bool complete = true;
  for (const std::string& name : order) {
    const Metric& m = metrics.at(name);
    if ((!trace && !m.set) || !std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << name << " was not measured\n";
      complete = false;
    }
    std::cout << "metric " << name << " = " << FormatNumber(m.value) << " "
              << m.unit << "\n";
  }
  const bool ok = correct_ && complete && attempted_ > 0;
  std::cout << "{\"correct\": " << (ok ? "true" : "false")
            << ", \"attempted\": " << std::max<int64_t>(attempted_, 1)
            << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < order.size(); ++i) {
    const Metric& m = metrics.at(order[i]);
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::cout << (i == 0 ? "" : ", ") << "\"" << order[i]
              << "\": {\"value\": " << FormatNumber(value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return ok ? 0 : 1;
}

uint64_t Fingerprint(std::span<const dar::DistanceRule> rules) {
  uint64_t h = rules.size();
  for (const dar::DistanceRule& rule : rules) {
    HashMix(h, rule.antecedent.size());
    for (size_t id : rule.antecedent) HashMix(h, id);
    HashMix(h, rule.consequent.size());
    for (size_t id : rule.consequent) HashMix(h, id);
    HashMix(h, std::bit_cast<uint64_t>(rule.degree));
    HashMix(h, static_cast<uint64_t>(rule.support_count));
  }
  return h;
}

bool SameRules(std::span<const dar::DistanceRule> a,
               std::span<const dar::DistanceRule> b) {
  if (a.size() != b.size()) return false;
  for (size_t k = 0; k < a.size(); ++k) {
    if (a[k].antecedent != b[k].antecedent ||
        a[k].consequent != b[k].consequent ||
        std::bit_cast<uint64_t>(a[k].degree) !=
            std::bit_cast<uint64_t>(b[k].degree) ||
        a[k].support_count != b[k].support_count) {
      return false;
    }
  }
  return true;
}

dar::DarConfig StreamShapeConfig(size_t attrs, size_t clusters) {
  dar::DarConfig config;
  config.memory_budget_bytes = 32u << 20;
  config.frequency_fraction = 0.5 / static_cast<double>(clusters);
  config.initial_diameters.assign(attrs, 0.3 * 1000.0 / clusters);
  config.degree_threshold = 150.0;
  return config;
}

std::vector<dar::Relation> SplitBatches(const dar::Relation& rel,
                                        size_t batch_rows) {
  std::vector<dar::Relation> batches;
  for (size_t begin = 0; begin < rel.num_rows(); begin += batch_rows) {
    const size_t end = std::min(rel.num_rows(), begin + batch_rows);
    dar::Relation batch(rel.schema());
    batch.Reserve(end - begin);
    for (size_t r = begin; r < end; ++r) (void)batch.AppendRow(rel.Row(r));
    batches.push_back(std::move(batch));
  }
  return batches;
}

dar::Phase2Result ReplayPhase2(const dar::Phase1Result& phase1,
                               const dar::DarConfig& config,
                               dar::Executor* executor, Phase2Stages& stages) {
  dar::Phase2Result out;
  dar::ClusteringGraphOptions graph_opts;
  graph_opts.metric = config.metric;
  graph_opts.prune_low_density_images = config.prune_low_density_images;
  graph_opts.executor = executor;
  for (double d0 : phase1.effective_d0) {
    graph_opts.d0.push_back(d0 * config.phase2_leniency);
  }
  Clock::time_point t = Clock::now();
  dar::ClusteringGraph graph(phase1.clusters, graph_opts);
  stages.edges_s = SecondsSince(t);
  stages.edge_evaluations = graph.comparisons_made();
  stages.pruned_pairs = graph.comparisons_skipped();
  out.graph_edges = graph.num_edges();

  dar::graph::CliqueOptions clique_opts;
  clique_opts.max_cliques = config.max_cliques;
  clique_opts.max_steps =
      config.max_cliques != 0 ? 64 * config.max_cliques : 0;
  clique_opts.executor = executor;
  t = Clock::now();
  dar::graph::CliqueResult cliques =
      dar::graph::EnumerateMaximalCliques(graph.graph(), clique_opts);
  stages.cliques_s = SecondsSince(t);
  stages.cliques = static_cast<int64_t>(cliques.cliques.size());
  stages.clique_steps = static_cast<int64_t>(cliques.steps);
  out.clique_cap_truncated = cliques.clique_cap_truncated;
  out.clique_steps_truncated = cliques.step_budget_truncated;
  out.cliques_truncated =
      out.clique_cap_truncated || out.clique_steps_truncated;
  for (const auto& q : cliques.cliques) {
    out.cliques.emplace_back(q.begin(), q.end());
    if (q.size() >= 2) ++out.num_nontrivial_cliques;
  }

  dar::RuleGenOptions rule_opts;
  rule_opts.metric = config.metric;
  rule_opts.degree_threshold = config.degree_threshold;
  rule_opts.degree_thresholds = config.degree_thresholds;
  rule_opts.max_antecedent = config.max_antecedent;
  rule_opts.max_consequent = config.max_consequent;
  rule_opts.max_rules = config.max_rules;
  t = Clock::now();
  dar::RuleGenResult rules =
      dar::GenerateDistanceRules(phase1.clusters, out.cliques, rule_opts);
  out.rules = std::move(rules.rules);
  std::sort(out.rules.begin(), out.rules.end(),
            [](const dar::DistanceRule& a, const dar::DistanceRule& b) {
              return a.degree < b.degree;
            });
  stages.rules_s = SecondsSince(t);
  stages.degree_evaluations = rules.degree_evaluations;
  out.rules_truncated = rules.truncated;
  return out;
}

namespace {

void RecordPhase1Counts(const dar::Phase1Result& phase1, Report& report) {
  double raw = 0, splits = 0, rebuilds = 0;
  for (size_t c : phase1.raw_cluster_counts) raw += static_cast<double>(c);
  for (const auto& stats : phase1.tree_stats) {
    splits += static_cast<double>(stats.split_count);
    rebuilds += stats.rebuild_count;
  }
  report.SetLayer("phase1.raw_acfs", raw);
  report.SetLayer("phase1.clusters",
                  static_cast<double>(phase1.clusters.size()));
  report.SetLayer("phase1.splits", splits);
  report.SetLayer("phase1.rebuilds", rebuilds);
}

void RecordPhase2Counts(const Phase2Stages& stages, size_t rules,
                        Report& report) {
  report.SetLayer("phase2.edge_evaluations",
                  static_cast<double>(stages.edge_evaluations));
  report.SetLayer("phase2.pruned_pairs",
                  static_cast<double>(stages.pruned_pairs));
  report.SetLayer("phase2.cliques", static_cast<double>(stages.cliques));
  report.SetLayer("phase2.clique_steps",
                  static_cast<double>(stages.clique_steps));
  report.SetLayer("phase2.degree_evaluations",
                  static_cast<double>(stages.degree_evaluations));
  report.SetLayer("phase2.rules", static_cast<double>(rules));
  report.SetLayer("phase2.rule_yield",
                  stages.degree_evaluations > 0
                      ? static_cast<double>(rules) /
                            static_cast<double>(stages.degree_evaluations)
                      : 0.0);
}

}  // namespace

void RecordMineReplay(const dar::Phase1Result& phase1, double add_s,
                      double finish_s, const Phase2Stages& stages,
                      size_t rules, Report& report) {
  report.SetLayer("phase1.add_s", add_s);
  report.SetLayer("phase1.finish_s", finish_s);
  report.SetLayer("phase2.edges_s", stages.edges_s);
  report.SetLayer("phase2.cliques_s", stages.cliques_s);
  report.SetLayer("phase2.rules_s", stages.rules_s);
  RecordPhase1Counts(phase1, report);
  RecordPhase2Counts(stages, rules, report);
}

void ReplayStream(const dar::DarConfig& config,
                  const dar::StreamConfig& stream_config,
                  const dar::Schema& schema,
                  const dar::AttributePartition& partition,
                  dar::Executor* executor,
                  const std::vector<const dar::Relation*>& batches,
                  const std::vector<bool>& remine_after,
                  const std::vector<Publication>& expected, Report& report) {
  auto builder =
      dar::Phase1Builder::Make(config, schema, partition, executor);
  if (!builder.ok()) {
    report.Check(false, "replay Phase1Builder::Make: " +
                            builder.status().ToString());
    return;
  }
  const bool retain = config.count_rule_support;
  dar::Relation retained(schema);
  dar::quality::MeasureRegistry measures;

  std::vector<double> add_s, snapshot_s, edges_s, cliques_s, rules_s,
      index_s, stats_s, score_s, prune_s, diff_s, unaccounted, coverage,
      overhead;
  dar::Phase1Result previous_phase1;
  std::vector<dar::DistanceRule> previous_rules;
  uint64_t generation = 0;
  size_t refresh = 0;
  for (size_t b = 0; b < batches.size(); ++b) {
    Clock::time_point t = Clock::now();
    if (auto s = builder->AddRelation(*batches[b]); !s.ok()) {
      report.Check(false, "replay AddRelation: " + s.ToString());
      return;
    }
    add_s.push_back(SecondsSince(t));
    if (retain) {
      for (size_t r = 0; r < batches[b]->num_rows(); ++r) {
        (void)retained.AppendRow(batches[b]->Row(r));
      }
    }
    if (!remine_after[b]) continue;

    const Clock::time_point wall = Clock::now();
    t = Clock::now();
    auto phase1 = builder->Snapshot();
    const double snap = SecondsSince(t);
    if (!phase1.ok()) {
      report.Check(false, "replay Snapshot: " + phase1.status().ToString());
      return;
    }
    Phase2Stages stages;
    dar::Phase2Result phase2 = ReplayPhase2(*phase1, config, executor, stages);

    double stats = 0, score = 0, prune = 0, diff = 0;
    size_t pruned = 0;
    Publication got;
    if (retain) {
      t = Clock::now();
      auto rule_stats = dar::ComputeRuleStats(
          retained, partition, phase1->clusters, phase2.rules, executor);
      stats = SecondsSince(t);
      if (!rule_stats.ok()) {
        report.Check(false, "replay ComputeRuleStats: " +
                                rule_stats.status().ToString());
        return;
      }
      for (size_t k = 0; k < phase2.rules.size(); ++k) {
        phase2.rules[k].support_count = (*rule_stats)[k].both;
      }
      report.SetLayer("quality.row_rule_checks",
                      static_cast<double>(retained.num_rows()) *
                          static_cast<double>(phase2.rules.size()));
      if (!stream_config.score_measures.empty()) {
        t = Clock::now();
        auto scored = dar::quality::ScoreRules(
            std::move(*rule_stats), measures, stream_config.score_measures);
        score = SecondsSince(t);
        if (!scored.ok()) {
          report.Check(false,
                       "replay ScoreRules: " + scored.status().ToString());
          return;
        }
        if (stream_config.prune_redundant) {
          dar::quality::PruneOptions prune_options;
          prune_options.min_overlap = stream_config.prune_min_overlap;
          t = Clock::now();
          auto result = dar::quality::PruneRedundant(
              phase1->clusters, phase2.rules, scored->scores, prune_options);
          prune = SecondsSince(t);
          if (!result.ok()) {
            report.Check(false, "replay PruneRedundant: " +
                                    result.status().ToString());
            return;
          }
          pruned = result->num_pruned;
        }
      }
    }
    if (stream_config.diff_snapshots && generation > 0) {
      dar::quality::DiffOptions diff_options;
      diff_options.interval_tolerance = stream_config.drift_interval_tolerance;
      diff_options.degree_tolerance = stream_config.drift_degree_tolerance;
      t = Clock::now();
      auto result = dar::quality::DiffRuleSets(
          previous_phase1.clusters, previous_rules, generation,
          phase1->clusters, phase2.rules, generation + 1, diff_options);
      diff = SecondsSince(t);
      if (!result.ok()) {
        report.Check(false,
                     "replay DiffRuleSets: " + result.status().ToString());
        return;
      }
      got.born = result->born;
      got.died = result->died;
      got.drifted = result->drifted;
    }
    double index = 0;
    if (stream_config.build_rule_index) {
      t = Clock::now();
      const dar::RuleIndex built =
          dar::RuleIndex::Build(phase1->clusters, phase2.rules, partition);
      index = SecondsSince(t);
      report.Check(built.num_rules() == phase2.rules.size(),
                   "replayed index covers every rule");
    }
    const double total = SecondsSince(wall);
    ++generation;

    got.fingerprint = Fingerprint(phase2.rules);
    got.rules = phase2.rules.size();
    got.pruned = pruned;
    if (refresh >= expected.size()) {
      report.Check(false, "replay re-mined more often than the stream");
      return;
    }
    const Publication& want = expected[refresh];
    report.Check(got.fingerprint == want.fingerprint &&
                     got.rules == want.rules && got.pruned == want.pruned &&
                     got.born == want.born && got.died == want.died &&
                     got.drifted == want.drifted,
                 "replayed refresh " + std::to_string(refresh) +
                     " equals the stream's publication (" +
                     std::to_string(got.rules) + " vs " +
                     std::to_string(want.rules) + " rules)");
    const double stages_s = snap + stages.edges_s + stages.cliques_s +
                            stages.rules_s + stats + score + prune + diff +
                            index;
    unaccounted.push_back(want.remine_s - stages_s);
    coverage.push_back(stages_s / want.remine_s);
    overhead.push_back(total / want.remine_s - 1.0);
    snapshot_s.push_back(snap);
    edges_s.push_back(stages.edges_s);
    cliques_s.push_back(stages.cliques_s);
    rules_s.push_back(stages.rules_s);
    stats_s.push_back(stats);
    score_s.push_back(score);
    prune_s.push_back(prune);
    diff_s.push_back(diff);
    index_s.push_back(index);
    ++refresh;

    // Counts are those of the final refresh.
    RecordPhase1Counts(*phase1, report);
    RecordPhase2Counts(stages, phase2.rules.size(), report);
    report.SetLayer("quality.pruned", static_cast<double>(pruned));
    previous_phase1 = std::move(*phase1);
    previous_rules = std::move(phase2.rules);
  }
  report.Check(refresh == expected.size(),
               "replay re-mined as often as the stream");
  // Times are medians per ingest batch (add) and per refresh (the rest).
  report.SetLayer("phase1.add_s", Median(add_s));
  report.SetLayer("phase1.snapshot_s", Median(snapshot_s));
  report.SetLayer("phase2.edges_s", Median(edges_s));
  report.SetLayer("phase2.cliques_s", Median(cliques_s));
  report.SetLayer("phase2.rules_s", Median(rules_s));
  report.SetLayer("index.build_s", Median(index_s));
  report.SetLayer("quality.stats_s", Median(stats_s));
  report.SetLayer("quality.score_s", Median(score_s));
  report.SetLayer("quality.prune_s", Median(prune_s));
  report.SetLayer("quality.diff_s", Median(diff_s));
  report.SetLayer("remine.unaccounted_s", Median(unaccounted));
  report.SetLayer("trace.residual_s", Median(unaccounted));
  report.SetLayer("trace.coverage", Median(coverage));
  report.SetLayer("trace.overhead", Median(overhead));
}

void RecordSpeedups(const dar::DarConfig& config, const dar::Relation& rel,
                    const dar::AttributePartition& partition,
                    const dar::Phase1Result& phase1, int threads,
                    Report& report) {
  dar::SerialExecutor serial;
  dar::ThreadPoolExecutor pool(threads);
  auto add_time = [&](dar::Executor& executor) {
    auto builder = dar::Phase1Builder::Make(config, rel.schema(), partition,
                                            &executor);
    if (!builder.ok()) return 0.0;
    const Clock::time_point t = Clock::now();
    const dar::Status s = builder->AddRelation(rel);
    const double seconds = SecondsSince(t);
    report.Check(s.ok(), "speedup AddRelation");
    return seconds;
  };
  const double add_1 = add_time(serial);
  const double add_n = add_time(pool);
  report.SetLayer("phase1.add_speedup", add_n > 0 ? add_1 / add_n : 0.0);

  Phase2Stages one, many;
  const dar::Phase2Result a = ReplayPhase2(phase1, config, &serial, one);
  const dar::Phase2Result b = ReplayPhase2(phase1, config, &pool, many);
  report.Check(SameRules(a.rules, b.rules),
               "Phase II rules are the same at 1 and N threads");
  report.SetLayer("phase2.edges_speedup",
                  many.edges_s > 0 ? one.edges_s / many.edges_s : 0.0);
  report.SetLayer("phase2.cliques_speedup",
                  many.cliques_s > 0 ? one.cliques_s / many.cliques_s : 0.0);
}

}  // namespace perfbench
