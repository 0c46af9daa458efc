// Google-benchmark microbenchmarks for the performance-critical kernels:
// ACF-tree point insertion, CF distance metrics, clique enumeration, and
// Apriori counting.

#include <benchmark/benchmark.h>

#include <memory>

#include "apriori/apriori.h"
#include "birch/acf_tree.h"
#include "birch/metrics.h"
#include "common/random.h"
#include "core/clustering_graph.h"
#include "core/session.h"
#include "datagen/planted.h"
#include "graph/clique.h"
#include "qar/equidepth.h"

namespace dar {
namespace {

std::shared_ptr<const AcfLayout> LayoutWithParts(size_t parts) {
  auto layout = std::make_shared<AcfLayout>();
  for (size_t p = 0; p < parts; ++p) {
    layout->parts.push_back(
        {1, MetricKind::kEuclidean, "p" + std::to_string(p)});
  }
  return layout;
}

void BM_AcfTreeInsertPoint(benchmark::State& state) {
  size_t parts = static_cast<size_t>(state.range(0));
  auto layout = LayoutWithParts(parts);
  AcfTreeOptions opts;
  opts.initial_threshold = 5.0;
  opts.memory_budget_bytes = 64u << 20;
  AcfTree tree(layout, 0, opts);
  Rng rng(1);
  PartedRow row(parts, std::vector<double>(1));
  for (auto _ : state) {
    for (size_t p = 0; p < parts; ++p) row[p][0] = rng.Uniform(0, 1000);
    benchmark::DoNotOptimize(tree.InsertPoint(row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AcfTreeInsertPoint)->Arg(1)->Arg(8)->Arg(30);

void BM_ClusterDistanceD2(benchmark::State& state) {
  size_t dim = static_cast<size_t>(state.range(0));
  CfVector a(dim, MetricKind::kEuclidean), b(dim, MetricKind::kEuclidean);
  Rng rng(2);
  std::vector<double> x(dim);
  for (int i = 0; i < 100; ++i) {
    for (auto& v : x) v = rng.Uniform(0, 10);
    a.AddPoint(x);
    for (auto& v : x) v = rng.Uniform(5, 15);
    b.AddPoint(x);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ClusterDistance(a, b, ClusterMetric::kD2AvgInter));
  }
}
BENCHMARK(BM_ClusterDistanceD2)->Arg(1)->Arg(4)->Arg(16);

void BM_DiameterWithPoint(benchmark::State& state) {
  CfVector cf(4, MetricKind::kEuclidean);
  Rng rng(3);
  std::vector<double> x(4);
  for (int i = 0; i < 1000; ++i) {
    for (auto& v : x) v = rng.Uniform(0, 10);
    cf.AddPoint(x);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cf.DiameterWithPoint(x));
  }
}
BENCHMARK(BM_DiameterWithPoint);

void BM_MaximalCliques(benchmark::State& state) {
  // Clustering graph from a planted workload sized by the arg.
  size_t patterns = static_cast<size_t>(state.range(0));
  auto spec = WbcdPartialPatternSpec(30, 35, patterns, 6, 0.2, 17);
  auto data = GeneratePlanted(*spec, 30000, 18);
  DarConfig config;
  config.memory_budget_bytes = 5u << 20;
  config.frequency_fraction = 0.01;
  auto session = Session::Builder().WithConfig(config).Build();
  auto phase1 = session->RunPhase1(data->relation, data->partition);
  ClusteringGraphOptions opts;
  for (double d0 : phase1->effective_d0) opts.d0.push_back(d0 * 2.0);
  ClusteringGraph graph(phase1->clusters, opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        graph::EnumerateMaximalCliques(graph.graph(), {}));
  }
  state.counters["nodes"] = static_cast<double>(graph.num_nodes());
  state.counters["edges"] = static_cast<double>(graph.num_edges());
}
BENCHMARK(BM_MaximalCliques)->Arg(30)->Arg(90)->Unit(benchmark::kMillisecond);

void BM_AprioriMine(benchmark::State& state) {
  Rng rng(4);
  std::vector<Itemset> txns;
  for (int i = 0; i < 2000; ++i) {
    Itemset t;
    for (Item item = 0; item < 24; ++item) {
      if (rng.Bernoulli(0.25)) t.push_back(item);
    }
    txns.push_back(std::move(t));
  }
  AprioriOptions opts;
  opts.min_support_count = 200;
  opts.max_itemset_size = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineFrequentItemsets(txns, opts));
  }
  state.SetItemsProcessed(state.iterations() * txns.size());
}
BENCHMARK(BM_AprioriMine)->Unit(benchmark::kMillisecond);

void BM_EquiDepthPartition(benchmark::State& state) {
  Rng rng(5);
  std::vector<double> values(100000);
  for (auto& v : values) v = rng.Uniform(0, 1e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EquiDepthPartition(values, 50));
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_EquiDepthPartition)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dar

BENCHMARK_MAIN();
